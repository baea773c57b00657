package analysis

import "go/types"

// Unused reports every declared function and method that no root of the
// program reaches through the call graph. The roots are:
//
//   - func main of every main package (examples included) and every
//     init function;
//   - functions that package-level variable initializers call or
//     reference (an analyzer's Run: runX field);
//   - methods that satisfy an interface declared outside the program
//     (String for fmt, Error, sort.Interface, types.Importer, ...),
//     since the standard library calls them unseen;
//   - every function of a Root package (Package.Root): code outside
//     the module that imports it, such as the benchmark harness.
//
// Only a program that holds Root packages is taken as the whole
// module. Any other load — osmosislint ./internal/sim — cannot see all
// callers, so there every exported function and method is a root too,
// and only unexported dead code is reported.
//
// Test files are not loaded, so a function only tests reach is
// reported: move it into a _test.go file or delete it. Blind spots, by
// construction: a function stored in a func-typed field counts as used
// where it is stored, whether or not the field is ever called — a
// package-level variable's initializer counts even when nothing reads
// the variable — and methods called only through reflection are
// reported.
var Unused = &Analyzer{
	Name: "unused",
	Doc:  "report functions and methods that no main, init, package initializer, external interface or root package reaches",
	Run:  runUnused,
}

func runUnused(pass *Pass) {
	for _, n := range pass.prog.pkgNodes(pass.PkgPath) {
		if !pass.prog.live[n] {
			pass.Reportf(n.decl.Name.Pos(), "%s is unused: no root reaches it", nodeName(n))
		}
	}
}

// reachable marks every graph node some root reaches.
func (p *Program) reachable() map[*cgNode]bool {
	live := map[*cgNode]bool{}
	var queue []*cgNode
	mark := func(n *cgNode) {
		if !live[n] {
			live[n] = true
			queue = append(queue, n)
		}
	}
	for _, n := range p.graph.list {
		sig := n.fn.Type().(*types.Signature)
		entry := sig.Recv() == nil && (n.fn.Name() == "init" ||
			n.fn.Name() == "main" && n.fn.Pkg().Name() == "main")
		if entry || n.pkg.Root || !p.whole && n.fn.Exported() {
			mark(n)
		}
	}
	for _, n := range p.graph.initRefs {
		mark(n)
	}
	for _, n := range p.externalMethods() {
		mark(n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.callees {
			mark(e.callee)
		}
	}
	return live
}

// externalMethods lists the program's methods that implement a method of
// an interface declared outside it: the universe's error and every
// exported interface of the packages the program imports, directly or
// not.
func (p *Program) externalMethods() []*cgNode {
	inProgram := map[*types.Package]bool{}
	for _, pkg := range p.Pkgs {
		inProgram[pkg.Types] = true
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		if !inProgram[tp] {
			scope := tp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range p.Pkgs {
		walk(pkg.Types)
	}

	var out []*cgNode
	for _, t := range concreteTypes(p.Pkgs) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(t)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for _, it := range ifaces {
			if !hasMethodNames(mset, it) || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					if n := p.graph.nodes[sel.Obj().(*types.Func).Origin()]; n != nil {
						out = append(out, n)
					}
				}
			}
		}
	}
	return out
}

// hasMethodNames is Implements' cheap pre-filter: every method name of
// the interface appears in the method set.
func hasMethodNames(mset *types.MethodSet, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if mset.Lookup(m.Pkg(), m.Name()) == nil {
			return false
		}
	}
	return true
}
