package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// determinismScope lists the package subtrees whose iteration order and
// entropy sources feed event ordering or aggregated experiment results.
// Simulation output from these packages must be bit-reproducible.
var determinismScope = []string{
	"internal/sim",
	"internal/sched",
	"internal/crossbar",
	"internal/experiments",
	"internal/fault",
}

// faultSeedScope is the subtree where RNGs must be built from derived
// stream seeds. Fault schedules share the experiment base seed with the
// traffic generators; only sim.DeriveSeed keeps their draws on a
// disjoint stream, so adding a fault campaign never perturbs the
// traffic processes of the run it degrades.
var faultSeedScope = []string{
	"internal/fault",
}

// randConstructors are the math/rand identifiers that build explicitly
// seeded sources; they are deterministic and therefore allowed.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Determinism flags the three ways nondeterminism leaks into the
// simulation core: wall-clock reads (time.Now), the implicitly seeded
// global math/rand source, and ranging over maps (whose iteration order
// varies run to run). Map iteration must go through sorted keys; random
// draws must come from an explicitly seeded source (internal/sim.RNG).
//
// The check is interprocedural: an in-scope function that reaches a
// violation through any call chain — a helper in an unscoped package, a
// callee of a callee, a conservative interface-dispatch candidate — is
// flagged at the first call of the chain, with the chain in the
// diagnostic. Violations inside the scoped packages themselves are
// reported directly at the offending site, exactly once.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock reads, global math/rand, and map iteration reachable from simulation-ordering code",
	Run:  runDeterminism,
}

// inScope reports whether pkgPath falls under one of the subtrees.
func inScope(pkgPath string, subtrees []string) bool {
	for _, s := range subtrees {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) ||
			strings.Contains(pkgPath, "/"+s+"/") || strings.HasPrefix(pkgPath, s+"/") {
			return true
		}
	}
	return false
}

// isSimFunc reports whether fun resolves to the named package-level
// function of internal/sim.
func isSimFunc(pass *Pass, fun ast.Expr, name string) bool {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Name() != name {
		return false
	}
	path := fn.Pkg().Path()
	return path == "internal/sim" || strings.HasSuffix(path, "/internal/sim")
}

// scanNondet reports every direct determinism violation under root: the
// shared detector behind both the in-scope site diagnostics and the
// base facts the propagator spreads to callers.
func scanNondet(info *types.Info, root ast.Node, report func(pos token.Pos, msg string)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			obj := info.Uses[n.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if obj.Name() == "Now" {
					report(n.Pos(),
						"time.Now reads the wall clock; simulation time must come from the kernel (units.Time)")
				}
			case "math/rand", "math/rand/v2":
				// Methods on an explicitly constructed source
				// (*rand.Rand) are fine; only the implicitly seeded
				// package-level functions are flagged.
				fn, isFunc := obj.(*types.Func)
				if isFunc && fn.Type().(*types.Signature).Recv() == nil &&
					!randConstructors[obj.Name()] {
					report(n.Pos(),
						"global math/rand ("+obj.Pkg().Name()+"."+obj.Name()+") is not reproducibly seeded; use an explicitly seeded source (internal/sim RNG)")
				}
			}
		case *ast.RangeStmt:
			t := info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				report(n.Pos(),
					"range over map ("+t.String()+") has nondeterministic iteration order; iterate over sorted keys")
			}
		}
		return true
	})
}

// runDeterminismDirect reports violations at their own site inside the
// scoped packages, plus the fault-seed construction rule.
func runDeterminismDirect(pass *Pass) {
	if !inScope(pass.PkgPath, determinismScope) {
		return
	}
	for _, f := range pass.Files {
		scanNondet(pass.TypesInfo, f, func(pos token.Pos, msg string) {
			pass.Reportf(pos, "%s", msg)
		})
	}
	if !inScope(pass.PkgPath, faultSeedScope) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSimFunc(pass, call.Fun, "NewRNG") {
				return true
			}
			if len(call.Args) == 1 {
				if inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok &&
					isSimFunc(pass, inner.Fun, "DeriveSeed") {
					return true
				}
			}
			pass.Reportf(call.Pos(),
				"fault-schedule RNGs must be seeded with a sim.DeriveSeed(...) call so fault draws stay on a stream disjoint from traffic")
			return true
		})
	}
}

func runDeterminism(pass *Pass) {
	runDeterminismDirect(pass)
	if pass.prog == nil || !inScope(pass.PkgPath, determinismScope) {
		return
	}
	// Transitive half: an in-scope function that inherited the fact
	// through a call edge is flagged at that edge. Functions whose own
	// body violates (fi.base != nil) were already reported above, and
	// in-scope callees do not transmit (they report themselves), so each
	// chain surfaces exactly once, at the deepest in-scope frame.
	facts := pass.prog.facts[factNondet]
	for _, n := range pass.prog.pkgNodes(pass.PkgPath) {
		fi := facts[n]
		if fi == nil || fi.via == nil {
			continue
		}
		frames, text, base := pass.prog.chain(factNondet, n)
		if base == nil {
			continue
		}
		suffix := ""
		if fi.via.iface != nil {
			suffix = " [via interface dispatch]"
		}
		pass.reportChainf(fi.via.pos, frames,
			"call chain %s%s reaches nondeterminism at %s: %s",
			text, suffix, shortPos(n.pkg.Fset, base.pos), base.msg)
	}
}
