package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ShardSafe machine-checks the isolation contract the sharded event
// kernel (ROADMAP item 1) will rely on. A function opts in with
//
//	//osmosis:shardsafe
//
// in its doc block, declaring that a shard may run it concurrently with
// other shards with no synchronization. The analyzer then enforces:
//
//   - no writes to package-level variables — not in the function, and
//     not in anything it transitively calls (static calls, conservative
//     interface dispatch, function references);
//   - no retention of argument references in shared state: an
//     assignment that stores a parameter (or receiver) of reference
//     kind into a package-level variable or a field of one is a
//     distinct, named violation (the light escape check).
//
// Receiver and local state are fair game — shard-local by definition.
// Known blind spots, accepted for a light analysis: writes through
// pointers obtained from globals earlier, mutation via stdlib calls
// (sync primitives, copy into a global slice passed as an argument),
// and calls through function-typed fields (the hook pattern).
//
// The same base facts drive Program.SharedState, the machine-generated
// inventory of every package-level variable and its writers — the
// partition work-list for the sharded kernel refactor.
var ShardSafe = &Analyzer{
	Name: "shardsafe",
	Doc:  "forbid //osmosis:shardsafe functions from reaching writes to package-level state or retaining argument references in it",
	Run:  runShardSafe,
}

// shardSafeDirective marks a function as safe to run on a shard.
const shardSafeDirective = "//osmosis:shardsafe"

// scanGlobalWrites reports every write to package-level state in n's
// body. The callback receives the written variable when one was
// identified (for the shared-state inventory); msg distinguishes plain
// writes from argument-reference escapes.
func scanGlobalWrites(n *cgNode, report func(pos token.Pos, msg string, v *types.Var)) {
	info := n.pkg.TypesInfo
	params := paramSet(n)
	checkLHS := func(lhs ast.Expr, rhs ast.Expr) {
		v, through := globalRoot(info, lhs)
		if v == nil {
			return
		}
		what := "package-level variable " + v.Pkg().Name() + "." + v.Name()
		if through {
			what = "shared state behind " + what
		}
		if p := escapedParam(info, params, rhs); p != nil {
			report(lhs.Pos(), "stores a reference to argument "+p.Name()+" in "+what, v)
			return
		}
		report(lhs.Pos(), "writes "+what, v)
	}
	ast.Inspect(n.decl, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				} else if len(s.Rhs) == 1 {
					rhs = s.Rhs[0]
				}
				checkLHS(lhs, rhs)
			}
		case *ast.IncDecStmt:
			checkLHS(s.X, nil)
		}
		return true
	})
}

// paramSet collects n's parameters and receiver.
func paramSet(n *cgNode) map[*types.Var]bool {
	set := map[*types.Var]bool{}
	sig, ok := n.fn.Type().(*types.Signature)
	if !ok {
		return set
	}
	if r := sig.Recv(); r != nil {
		set[r] = true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		set[sig.Params().At(i)] = true
	}
	return set
}

// globalRoot resolves the root of an assignable expression to a
// package-level variable, walking selector/index/star/paren chains.
// through reports whether the write dereferences (writes state reachable
// from the global rather than the variable itself) — *globalPtr = x.
func globalRoot(info *types.Info, e ast.Expr) (v *types.Var, through bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			// A package-qualified global (pkg.Var) resolves via Sel; a
			// field chain keeps walking X.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					e = x.Sel
					continue
				}
			}
			e = x.X
		case *ast.StarExpr:
			through = true
			e = x.X
		case *ast.Ident:
			obj, ok := info.Uses[x].(*types.Var)
			if !ok {
				if obj, ok := info.Defs[x].(*types.Var); ok && isPackageLevel(obj) {
					return obj, through
				}
				return nil, false
			}
			if isPackageLevel(obj) {
				return obj, through
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// escapedParam reports the first parameter of reference kind whose value
// the expression carries, or nil. Storing a value copy is not retention:
// a non-reference result type (counter = len(arg), g = arg.field with a
// scalar field) cannot smuggle the argument out.
func escapedParam(info *types.Info, params map[*types.Var]bool, rhs ast.Expr) *types.Var {
	if rhs == nil || len(params) == 0 {
		return nil
	}
	if t := info.TypeOf(rhs); t == nil || !referenceKind(t) {
		return nil
	}
	var found *types.Var
	ast.Inspect(rhs, func(nd ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || !params[v] || !referenceKind(v.Type()) {
			return true
		}
		found = v
		return false
	})
	return found
}

// referenceKind reports whether values of t carry references to memory
// the caller can still see (pointers, slices, maps, chans, funcs,
// interfaces).
func referenceKind(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Signature, *types.Interface:
		return true
	}
	return false
}

func runShardSafe(pass *Pass) {
	if pass.prog == nil {
		return
	}
	facts := pass.prog.facts[factGlobalWrite]
	base := pass.prog.baseFacts[factGlobalWrite]
	for _, n := range pass.prog.pkgNodes(pass.PkgPath) {
		if !n.shardsafe {
			continue
		}
		// Direct writes: every base fact in the annotated function's own
		// body is reported at its site.
		for _, bf := range base[n] {
			pass.Reportf(bf.pos, "shardsafe function %s %s", n.fn.Name(), bf.msg)
		}
		// Inherited writes: reported once at the first call of a
		// shortest witness chain. Shardsafe callees do not transmit —
		// they are verified in their own right.
		fi := facts[n]
		if fi == nil || fi.via == nil {
			continue
		}
		frames, text, bf := pass.prog.chain(factGlobalWrite, n)
		if bf == nil {
			continue
		}
		suffix := ""
		if fi.via.iface != nil {
			suffix = " [via interface dispatch]"
		}
		pass.reportChainf(fi.via.pos, frames,
			"shardsafe function %s reaches shared-state mutation: chain %s%s %s at %s",
			n.fn.Name(), text, suffix, bf.msg, shortPos(n.pkg.Fset, bf.pos))
	}
}

// GlobalVar is one entry of the shared-state inventory: a package-level
// variable and the declared functions that write it.
type GlobalVar struct {
	Pkg  string `json:"pkg"`
	Name string `json:"name"`
	Type string `json:"type"`
	// Writers lists writing functions (sorted); empty means no write was
	// found in any declared function body — constant-after-init state.
	Writers []string `json:"writers"`
}

// SharedState inventories every package-level variable of the program
// with the functions that write it — the machine-checked partition
// work-list for the sharded kernel. Suppressions do not hide entries:
// the inventory reflects the code, not the annotations.
func (p *Program) SharedState() []GlobalVar {
	var out []GlobalVar
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // sorted
			v, ok := scope.Lookup(name).(*types.Var)
			if !ok || name == "_" {
				continue
			}
			gv := GlobalVar{
				Pkg:  pkg.Path,
				Name: name,
				Type: types.TypeString(v.Type(), types.RelativeTo(pkg.Types)),
			}
			for w := range p.writers[v] {
				gv.Writers = append(gv.Writers, w)
			}
			sort.Strings(gv.Writers)
			out = append(out, gv)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pkg != out[j].Pkg {
			return out[i].Pkg < out[j].Pkg
		}
		return out[i].Name < out[j].Name
	})
	return out
}
