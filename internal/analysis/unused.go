package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

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
// It also reports a struct field that no live function or package-level
// declaration reads (assignments, increments and composite-literal keys
// are writes), and a package-level var or const none of them names. A
// struct passed whole to fmt or encoding/json, compared with == or used
// as a map key has all its fields read. Tagged and embedded fields are
// exempt, as is an iota member a later, used member depends on.
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
	Doc:  "report functions no root reaches, fields no live code reads, and package-level vars and consts nothing references",
	Run:  runUnused,
}

func runUnused(pass *Pass) {
	for _, n := range pass.prog.pkgNodes(pass.PkgPath) {
		if !pass.prog.live[n] {
			pass.Reportf(n.decl.Name.Pos(), "%s is unused: no root reaches it", nodeName(n))
		}
	}
	// Exported data is only known dead when the whole module is loaded.
	dead := func(obj types.Object) bool {
		return obj != nil && obj.Name() != "_" && !pass.prog.used[obj] && (pass.prog.whole || !obj.Exported())
	}
	qual := pass.Pkg.Name() + "."
	for _, f := range pass.Files {
		structName := map[*ast.StructType]string{}
		ast.Inspect(f, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.TypeSpec:
				if st, ok := nd.Type.(*ast.StructType); ok {
					structName[st] = nd.Name.Name + "."
				}
			case *ast.StructType:
				for _, field := range nd.Fields.List {
					if field.Tag != nil || len(field.Names) == 0 {
						continue
					}
					for _, name := range field.Names {
						if dead(pass.TypesInfo.Defs[name]) {
							pass.Reportf(name.Pos(), "%s%s%s is unused: no live code reads it", qual, structName[nd], name.Name)
						}
					}
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST && gd.Tok != token.VAR {
				continue
			}
			// Deleting a member of an iota block renumbers the members
			// after it, so only those past the last used one can go.
			specs := gd.Specs
			if gd.Tok == token.CONST && iotaBlock(gd) {
				for i, spec := range gd.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if !dead(pass.TypesInfo.Defs[name]) {
							specs = gd.Specs[i+1:]
						}
					}
				}
			}
			for _, spec := range specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if dead(pass.TypesInfo.Defs[name]) {
						pass.Reportf(name.Pos(), "%s%s is unused: nothing references it", qual, name.Name)
					}
				}
			}
		}
	}
}

// iotaBlock reports whether a const block numbers its members by
// position: some member names iota or repeats the expression above it.
func iotaBlock(gd *ast.GenDecl) bool {
	found := false
	ast.Inspect(gd, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.ValueSpec:
			found = found || len(nd.Values) == 0
		case *ast.Ident:
			found = found || nd.Name == "iota"
		}
		return !found
	})
	return found
}

// usedData collects the struct fields that live functions and
// package-level declarations read, and the package-level vars and
// consts they reference. Root packages count in full.
func (p *Program) usedData(pkgs []*Package) map[types.Object]bool {
	used := map[types.Object]bool{}
	for _, n := range p.graph.list {
		if p.live[n] {
			markUses(n.pkg.TypesInfo, n.decl, used)
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					markUses(pkg.TypesInfo, gd, used)
				}
			}
		}
	}
	return used
}

// markUses records the fields root reads and the package-level names it
// references. The left side of an assignment or increment is a write;
// the selectors inside it (a.b in a.b.c = v) are still reads. Indexing
// a map reads every field of a struct key.
func markUses(info *types.Info, root ast.Node, used map[types.Object]bool) {
	writes := map[ast.Expr]bool{}
	seen := map[types.Type]bool{}
	whole := func(e ast.Expr) {
		if t := info.TypeOf(e); t != nil {
			markFields(t, used, seen)
		}
	}
	ast.Inspect(root, func(nd ast.Node) bool {
		switch e := nd.(type) {
		case *ast.AssignStmt:
			for _, l := range e.Lhs {
				writes[ast.Unparen(l)] = true
			}
		case *ast.IncDecStmt:
			writes[ast.Unparen(e.X)] = true
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal && !writes[e] {
				used[sel.Obj().(*types.Var).Origin()] = true
			}
		case *ast.Ident:
			// Fields have no parent scope, so only package-level names
			// pass.
			if obj := info.Uses[e]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				used[obj] = true
			}
		case *ast.CallExpr:
			if reflective(info, e) {
				for _, arg := range e.Args {
					whole(arg)
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.EQL || e.Op == token.NEQ {
				whole(e.X)
			}
		case *ast.IndexExpr:
			whole(e.Index)
		}
		return true
	})
}

// reflective reports whether call goes to fmt or encoding/json, which
// read every field of a struct argument by reflection.
func reflective(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, _ := fun.(*ast.Ident)
	fn, ok := info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && (fn.Pkg().Path() == "fmt" || fn.Pkg().Path() == "encoding/json")
}

// markFields records every field reachable inside a value of type t as
// read: struct fields, through pointers, slices, arrays, channels and
// maps.
func markFields(t types.Type, used map[types.Object]bool, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Map:
		markFields(u.Key(), used, seen)
		markFields(u.Elem(), used, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			used[u.Field(i).Origin()] = true
			markFields(u.Field(i).Type(), used, seen)
		}
	case interface{ Elem() types.Type }:
		markFields(u.Elem(), used, seen)
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
