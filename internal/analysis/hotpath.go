package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath enforces the simulator's zero-allocation contract on the
// per-cycle inner loops. A function opts in with the directive comment
//
//	//osmosis:hotpath
//
// in its doc block; inside such a function the analyzer flags the
// constructs that heap-allocate per call in steady state:
//
//   - make(...)            — build the buffer once in the constructor
//     and reuse it;
//   - append(...)          — growth reallocates; appends into retained,
//     cap-stable scratch document themselves with a lint:ignore reason;
//   - map composite literals — allocate and, worse, invite map
//     iteration into deterministic code;
//   - function literals    — a capturing closure escapes to the heap;
//   - calls into package fmt — every fmt call allocates.
//
// The check is interprocedural: a hotpath function may only call callees
// that are themselves allocation-free, either annotated //osmosis:hotpath
// (and so checked in their own right) or inferred clean by the same
// rules transitively. A helper that allocates two calls below an
// annotated root is reported at the root's call site with the full
// chain — the helper-call escape hatch is closed.
//
// The annotation is the machine-checked half of the contract; the
// testing.AllocsPerRun regression tests are the measured half. Keeping
// both means a reviewer can trust that any //osmosis:hotpath function
// stays allocation-free without reading its whole call graph.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "flag allocation (make/append/map-literal/closure/fmt) in or reachable from //osmosis:hotpath functions",
	Run:  runHotPath,
}

// hotPathDirective marks a function as a steady-state inner loop.
const hotPathDirective = "//osmosis:hotpath"

// isHotPath reports whether the function's doc block carries the
// directive.
func isHotPath(fn *ast.FuncDecl) bool {
	return hasDirective(fn, hotPathDirective)
}

// allocKind names the construct an allocation fact came from, so the
// direct and transitive reporters can phrase it appropriately.
type allocKind int

const (
	allocMake allocKind = iota
	allocAppend
	allocMapLit
	allocClosure
	allocFmt
)

// baseMsg is the compact phrasing used at the tail of call chains.
func (k allocKind) baseMsg(detail string) string {
	switch k {
	case allocMake:
		return "make allocates"
	case allocAppend:
		return "append may grow its backing array"
	case allocMapLit:
		return "map literal allocates"
	case allocClosure:
		return "function literal escapes to the heap"
	default:
		return "fmt." + detail + " allocates"
	}
}

// scanAllocKinds reports every construct under root that may
// heap-allocate per call: the shared detector behind both the direct
// in-function diagnostics and the base facts propagated to hotpath
// callers. detail carries the function name for allocFmt.
func scanAllocKinds(info *types.Info, root ast.Node, report func(pos token.Pos, kind allocKind, detail string)) {
	isBuiltin := func(call *ast.CallExpr, name string) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != name {
			return false
		}
		b, ok := info.Uses[id].(*types.Builtin)
		return ok && b.Name() == name
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(n, "make") {
				report(n.Pos(), allocMake, "")
			}
			if isBuiltin(n, "append") {
				report(n.Pos(), allocAppend, "")
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok &&
					fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
					report(n.Pos(), allocFmt, fn.Name())
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					report(n.Pos(), allocMapLit, "")
				}
			}
		case *ast.FuncLit:
			report(n.Pos(), allocClosure, "")
		}
		return true
	})
}

// scanAllocs adapts scanAllocKinds to the base-fact collector's
// (pos, msg) shape.
func scanAllocs(info *types.Info, root ast.Node, report func(pos token.Pos, msg string)) {
	scanAllocKinds(info, root, func(pos token.Pos, kind allocKind, detail string) {
		report(pos, kind.baseMsg(detail))
	})
}

// runHotPathDirect flags allocating constructs inside annotated
// functions, at their own site, with construct-specific advice.
func runHotPathDirect(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotPath(fn) {
				continue
			}
			name := fn.Name.Name
			scanAllocKinds(pass.TypesInfo, fn.Body, func(pos token.Pos, kind allocKind, detail string) {
				switch kind {
				case allocMake:
					pass.Reportf(pos,
						"make in hotpath function %s; preallocate in the constructor and reuse", name)
				case allocAppend:
					pass.Reportf(pos,
						"append in hotpath function %s may grow its backing array; reuse a retained cap-stable slice (or justify with a lint:ignore reason)", name)
				case allocMapLit:
					pass.Reportf(pos,
						"map literal in hotpath function %s allocates; hoist it out of the per-cycle path", name)
				case allocClosure:
					pass.Reportf(pos,
						"function literal in hotpath function %s; a capturing closure escapes to the heap", name)
				case allocFmt:
					pass.Reportf(pos,
						"fmt.%s in hotpath function %s allocates; format outside the per-cycle path", detail, name)
				}
			})
		}
	}
}

func runHotPath(pass *Pass) {
	runHotPathDirect(pass)
	if pass.prog == nil {
		return
	}
	// Transitive half: an annotated root that inherited the alloc fact
	// through a call edge is flagged at that edge. Annotated callees do
	// not transmit — they are verified in their own right — so a clean
	// hotpath helper can be called freely, and a dirty one reports at
	// its own site rather than at every caller.
	facts := pass.prog.facts[factAlloc]
	for _, n := range pass.prog.pkgNodes(pass.PkgPath) {
		if !n.hotpath {
			continue
		}
		fi := facts[n]
		if fi == nil || fi.via == nil {
			continue
		}
		frames, text, base := pass.prog.chain(factAlloc, n)
		if base == nil {
			continue
		}
		suffix := ""
		if fi.via.iface != nil {
			suffix = " [via interface dispatch]"
		}
		pass.reportChainf(fi.via.pos, frames,
			"hotpath function %s calls allocating code: chain %s%s allocates at %s (%s)",
			n.fn.Name(), text, suffix, shortPos(n.pkg.Fset, base.pos), base.msg)
	}
}
