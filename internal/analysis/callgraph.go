package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// callGraph is the module-wide static call graph: one node per function
// or method declared with a body in the program, edges for every way one
// of them can invoke another that the type checker can see.
//
// Edge sources, in decreasing precision:
//
//   - static calls — direct function calls and method calls on concrete
//     receivers resolve to exactly one callee;
//   - interface dispatch — a call through an interface-typed receiver
//     adds a conservative edge to every method in the program whose
//     receiver type implements that interface (over-approximation: the
//     dynamic type could be any of them);
//   - function references — naming a function outside call position
//     (passing it as a value, taking a method value or method
//     expression) adds a may-call edge from the referencing function,
//     since the reference can be invoked later.
//
// References in package-level variable initializers have no enclosing
// function; they are kept as initRefs, roots for the unused analyzer.
//
// Known blind spots, by construction: calls through function-typed
// struct fields or variables (the hook pattern — the value's origin is
// not tracked, so the reference where a function is stored stands in
// for every later call, and unused counts a stored function as used
// even if the field is never called), calls that happen inside the
// standard library (sort.Sort invoking Less; unused roots such methods
// by interface instead), and reflection. Code inside a function literal
// is attributed to the enclosing declared function.
type callGraph struct {
	nodes map[*types.Func]*cgNode
	// list holds the nodes in deterministic order: packages in program
	// order, declarations in file/position order.
	list []*cgNode
	// initRefs are the functions that package-level variable
	// initializers call or reference (an analyzer's Run: runX field).
	// No declared function holds those references, so they are roots.
	initRefs []*cgNode
}

// cgNode is one declared function or method.
type cgNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	// hotpath / shardsafe record the function's directive annotations;
	// annotated functions are verified in their own right, so facts do
	// not propagate out of them to callers.
	hotpath   bool
	shardsafe bool
	callees   []*cgEdge
	callers   []*cgEdge
}

// cgEdge is one caller→callee relation at a specific source position.
type cgEdge struct {
	caller, callee *cgNode
	pos            token.Pos
	// iface, when non-nil, is the interface method the call site named;
	// the edge is a conservative dispatch candidate, not a proven call.
	iface *types.Func
}

// hasDirective reports whether the function's doc block carries the
// given //osmosis:* directive on a line of its own.
func hasDirective(fn *ast.FuncDecl, directive string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// nodeName formats a node for call chains: pkg.Func or pkg.Type.Method.
func nodeName(n *cgNode) string {
	name := n.fn.Name()
	if sig, ok := n.fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if p := n.fn.Pkg(); p != nil {
		name = p.Name() + "." + name
	}
	return name
}

// buildCallGraph constructs the graph over the program's packages.
func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{nodes: map[*types.Func]*cgNode{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &cgNode{
					fn:        obj,
					decl:      fn,
					pkg:       pkg,
					hotpath:   hasDirective(fn, hotPathDirective),
					shardsafe: hasDirective(fn, shardSafeDirective),
				}
				g.nodes[obj] = n
				g.list = append(g.list, n)
			}
		}
	}
	concrete := concreteTypes(pkgs)
	implCache := map[*types.Func][]*cgNode{}
	for _, n := range g.list {
		g.addEdges(n, concrete, implCache)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					g.refs(pkg.TypesInfo, gd, concrete, implCache, func(callee *cgNode, _ token.Pos, _ *types.Func) {
						g.initRefs = append(g.initRefs, callee)
					})
				}
			}
		}
	}
	for _, n := range g.list {
		sort.SliceStable(n.callees, func(i, j int) bool {
			return n.callees[i].pos < n.callees[j].pos
		})
	}
	for _, n := range g.list {
		for _, e := range n.callees {
			e.callee.callers = append(e.callee.callers, e)
		}
	}
	return g
}

// concreteTypes lists every non-interface named type declared in the
// program, the candidate set for interface-dispatch resolution. Root
// packages are left out: the module cannot import them, so its
// interface calls never reach their types.
func concreteTypes(pkgs []*Package) []types.Type {
	var out []types.Type
	for _, pkg := range pkgs {
		if pkg.Root {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t) {
				continue
			}
			out = append(out, t)
		}
	}
	return out
}

// addEdges scans n's body (function literals included — their calls are
// attributed to n) and records every callee the type checker resolves.
func (g *callGraph) addEdges(n *cgNode, concrete []types.Type, implCache map[*types.Func][]*cgNode) {
	type edgeKey struct {
		callee *cgNode
		pos    token.Pos
	}
	seen := map[edgeKey]bool{}
	g.refs(n.pkg.TypesInfo, n.decl, concrete, implCache, func(callee *cgNode, pos token.Pos, iface *types.Func) {
		k := edgeKey{callee, pos}
		if seen[k] {
			return
		}
		seen[k] = true
		n.callees = append(n.callees, &cgEdge{caller: n, callee: callee, pos: pos, iface: iface})
	})
}

// refs walks root and hands every declared function it calls or
// references to visit, with the call site and, for interface dispatch,
// the interface method named there.
func (g *callGraph) refs(info *types.Info, root ast.Node, concrete []types.Type, implCache map[*types.Func][]*cgNode,
	visit func(callee *cgNode, pos token.Pos, iface *types.Func)) {
	handled := map[*ast.Ident]bool{}
	add := func(fn *types.Func, pos token.Pos, iface *types.Func) {
		if callee := g.nodes[fn.Origin()]; callee != nil {
			visit(callee, pos, iface)
		}
	}
	ast.Inspect(root, func(nd ast.Node) bool {
		switch e := nd.(type) {
		case *ast.SelectorExpr:
			handled[e.Sel] = true
			if sel, ok := info.Selections[e]; ok {
				// Method value, method call, or method expression.
				m, ok := sel.Obj().(*types.Func)
				if !ok {
					return true // func-typed field: origin untracked
				}
				if sig, ok := m.Type().(*types.Signature); ok &&
					sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
					for _, impl := range g.implementers(sig.Recv().Type(), m, concrete, implCache) {
						visit(impl, e.Sel.Pos(), m)
					}
					return true
				}
				add(m, e.Sel.Pos(), nil)
				return true
			}
			// Package-qualified identifier (pkg.F).
			if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
				add(fn, e.Sel.Pos(), nil)
			}
		case *ast.Ident:
			if handled[e] {
				return true
			}
			if fn, ok := info.Uses[e].(*types.Func); ok {
				add(fn, e.Pos(), nil)
			}
		}
		return true
	})
}

// implementers resolves an interface method to every declared method in
// the program whose receiver type (or its pointer) implements the
// interface. Results are cached per interface-method object.
func (g *callGraph) implementers(recv types.Type, m *types.Func, concrete []types.Type, cache map[*types.Func][]*cgNode) []*cgNode {
	if impls, ok := cache[m]; ok {
		return impls
	}
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		cache[m] = nil
		return nil
	}
	var impls []*cgNode
	for _, t := range concrete {
		target := t
		if !types.Implements(target, iface) {
			target = types.NewPointer(t)
			if !types.Implements(target, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(target, true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node := g.nodes[fn.Origin()]; node != nil {
			impls = append(impls, node)
		}
	}
	cache[m] = impls
	return impls
}
