package analysis

import (
	"go/ast"
	"sort"
)

// Test entry points: fixtures type-check synthetic packages, run single
// analyzers over one package, and read the shardsafe annotation set.

// CheckSource type-checks the given parsed files as a package with an
// arbitrary import path. Fixture tests use this to run analyzers over
// sources pretending to live in a scoped package such as
// "repro/internal/sim". The result is registered with the loader, so a
// later CheckSource call can import it by its synthetic path — which is
// how multi-package call-graph fixtures are assembled.
func (l *Loader) CheckSource(path string, files []*ast.File) (*Package, error) {
	pkg, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.extra[path] = pkg.Types
	return pkg, nil
}

// RunAnalyzers applies each analyzer to the package as a single-package
// Program and returns the surviving diagnostics: suppressed findings are
// removed, and malformed or reasonless ignore directives are reported as
// findings themselves. Cross-package call chains require building the
// Program over every package instead (NewProgram + Run).
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return NewProgram([]*Package{pkg}).Run(analyzers, 1)
}

// ShardSafeFuncs lists every //osmosis:shardsafe-annotated function in
// the program by its chain name (pkg.Type.Method), sorted — the
// machine-readable annotation inventory the seed tests pin.
func (p *Program) ShardSafeFuncs() []string {
	var out []string
	for _, n := range p.graph.list {
		if n.shardsafe {
			out = append(out, nodeName(n))
		}
	}
	sort.Strings(out)
	return out
}

// DeterminismIntra is the pre-call-graph, single-function half of
// Determinism: it sees only a function's own body, never its callees.
// Retained so tests can prove exactly what transitivity adds; not part of All().
var DeterminismIntra = &Analyzer{
	Name: "determinism",
	Doc:  "intra-procedural determinism check (no call-chain analysis)",
	Run:  runDeterminismDirect,
}

// HotPathIntra is the pre-call-graph half of HotPath: it inspects only
// the annotated function's own body, never its callees. Retained so
// tests can prove exactly what transitivity adds; not part of All().
var HotPathIntra = &Analyzer{
	Name: "hotpath",
	Doc:  "intra-procedural hotpath check (no call-chain analysis)",
	Run:  runHotPathDirect,
}
