// Package analysis is a pure-stdlib static-analysis framework with
// domain-specific analyzers that machine-check the simulator's core
// promises: bit-reproducible discrete-event runs (determinism), exact
// picosecond accounting through units.Time (unitsafety), library code
// that reports failures as errors rather than panics (panicfree), no
// silently dropped error values (errcheck), allocation-free inner loops
// (hotpath), shard-partitionable state isolation (shardsafe), and no
// code that only tests reach (unused).
//
// The framework deliberately avoids golang.org/x/tools: packages are
// loaded with go/parser, type-checked with go/types, and stdlib
// dependencies are resolved by the go/importer source importer, so the
// linter builds with nothing beyond the standard library.
//
// Analyzers run over a Program — every loaded package analyzed as one
// unit. The Program carries a module-wide call graph (callgraph.go) and
// per-function facts propagated to a fixpoint over it (propagate.go),
// which is what makes determinism, hotpath, and shardsafe transitive:
// a violation one call deep — or ten — is reported at the annotated or
// in-scope function that reaches it, with the full call chain in the
// diagnostic.
//
// Diagnostics can be suppressed at a specific site with a comment on
// the same line, the line directly above, or — when the finding sits
// inside a multi-line statement — the line directly above the enclosing
// statement:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory; an ignore directive without one is itself
// reported. Suppressions are how the tree documents the few deliberate
// exceptions (e.g. kernel invariant panics) while everything else is
// machine-enforced. A suppressed finding also stops propagating: a
// justified map range in a helper is not re-reported at its callers.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/parallel"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description for -help output.
	Doc string
	// Run inspects the package via pass and reports findings.
	Run func(pass *Pass)
}

// Pass carries one package's parsed and type-checked state to an
// analyzer, plus the Report sink for diagnostics.
type Pass struct {
	// Fset resolves token.Pos values for every file in the package.
	Fset *token.FileSet
	// PkgPath is the import path (e.g. "repro/internal/sim").
	PkgPath string
	// Files are the package's non-test syntax trees.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression and object maps.
	TypesInfo *types.Info

	prog     *Program
	analyzer *Analyzer
	report   func(d Diagnostic)
}

// Reportf records a diagnostic at pos under the running analyzer's name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// reportChainf records an interprocedural diagnostic whose call chain is
// carried both in the message (already formatted by the caller) and as
// structured frames for -json consumers.
func (p *Pass) reportChainf(pos token.Pos, chain []Frame, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// Frame is one hop of an interprocedural diagnostic's call chain: the
// function and the position within it where the next call (or, in the
// final frame, the base violation) occurs.
type Frame struct {
	Func string `json:"func"`
	File string `json:"file"`
	Line int    `json:"line"`
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
	// Chain, when non-empty, is the call chain of an interprocedural
	// finding: Chain[0] is the function the diagnostic is reported in and
	// the last frame holds the base violation.
	Chain []Frame
}

// String formats the diagnostic as path:line:col: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
}

// All returns the framework's analyzers in a stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, UnitSafety, PanicFree, ErrCheck, HotPath, ShardSafe, Unused}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(list string) ([]*Analyzer, error) {
	if list == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Program is a set of packages analyzed as one unit: the call graph and
// the propagated facts span every package it holds, so transitive
// analyzers see through package boundaries.
type Program struct {
	// Pkgs are the member packages that are linted, in the caller's
	// order (Loader.Load returns them sorted by import path).
	Pkgs []*Package
	// whole records that the program holds Root packages, which a load
	// only adds when it spans the module (see Unused).
	whole bool

	sup       *suppressor
	badByPath map[string][]Diagnostic
	graph     *callGraph
	baseFacts [numFactKinds]map[*cgNode][]baseFact
	facts     [numFactKinds]map[*cgNode]*factInfo
	// writers records, per package-level variable, the names of the
	// functions that write it — before suppression filtering, so the
	// shared-state inventory reflects reality rather than annotations.
	writers map[*types.Var]map[string]bool
	// live holds the nodes some root reaches; used holds the fields
	// they read and the package-level vars and consts they name
	// (unused.go).
	live map[*cgNode]bool
	used map[types.Object]bool
}

// NewProgram builds the call graph over pkgs, collects per-function base
// facts for every fact kind, and propagates them to a fixpoint. Root
// packages join the call graph but are not linted. The result is
// immutable and safe for concurrent Run calls.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{writers: map[*types.Var]map[string]bool{}}
	for _, pkg := range pkgs {
		if pkg.Root {
			p.whole = true
		} else {
			p.Pkgs = append(p.Pkgs, pkg)
		}
	}
	p.sup, p.badByPath = newSuppressor(p.Pkgs)
	p.graph = buildCallGraph(pkgs)
	p.live = p.reachable()
	p.used = p.usedData(pkgs)
	p.collectBaseFacts()
	p.facts[factNondet] = propagate(p.graph, p.baseFacts[factNondet], func(n *cgNode) bool {
		return !inScope(n.pkg.Path, determinismScope)
	})
	p.facts[factAlloc] = propagate(p.graph, p.baseFacts[factAlloc], func(n *cgNode) bool {
		return !n.hotpath
	})
	p.facts[factGlobalWrite] = propagate(p.graph, p.baseFacts[factGlobalWrite], func(n *cgNode) bool {
		return !n.shardsafe
	})
	return p
}

// Run applies the analyzers to every package of the program, fanning the
// per-package passes out over the worker pool (workers <= 0 selects
// GOMAXPROCS; the propagated facts are read-only by then). Output is
// sorted and byte-identical at any parallelism.
func (p *Program) Run(analyzers []*Analyzer, workers int) []Diagnostic {
	per := parallel.Map(len(p.Pkgs), workers, func(i int) []Diagnostic {
		return p.runPackage(p.Pkgs[i], analyzers)
	})
	var diags []Diagnostic
	for _, d := range per {
		diags = append(diags, d...)
	}
	Sort(diags)
	return diags
}

// runPackage applies the analyzers to one member package.
func (p *Program) runPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:      pkg.Fset,
			PkgPath:   pkg.Path,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			prog:      p,
			analyzer:  a,
			report: func(d Diagnostic) {
				if !p.sup.suppresses(d) {
					diags = append(diags, d)
				}
			},
		}
		a.Run(pass)
	}
	diags = append(diags, p.badByPath[pkg.Path]...)
	Sort(diags)
	return diags
}

// Sort orders diagnostics by file, line, column, analyzer, message.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// ignoreDirective is the comment prefix for site-local suppressions.
const ignoreDirective = "//lint:ignore"

// suppressionKey identifies a (file, line, analyzer) suppression site.
type suppressionKey struct {
	file     string
	line     int
	analyzer string
}

// suppressor resolves whether a diagnostic is covered by an ignore
// directive. Beyond the same-line and line-above rules, it knows the
// extent of every multi-line statement (and package-level value spec),
// so a directive above a statement suppresses a finding anywhere inside
// it — an offending call pushed to a continuation line by gofmt cannot
// silently escape its suppression.
type suppressor struct {
	sup map[suppressionKey]bool
	// stmtStart maps file -> line -> first line of the innermost
	// multi-line statement covering that line.
	stmtStart map[string]map[int]int
}

// suppresses reports whether d is covered by an ignore directive on the
// same line, the line directly above it, or the line directly above the
// innermost enclosing multi-line statement.
func (s *suppressor) suppresses(d Diagnostic) bool {
	key := suppressionKey{file: d.Position.Filename, analyzer: d.Analyzer}
	for _, line := range []int{d.Position.Line, d.Position.Line - 1} {
		key.line = line
		if s.sup[key] {
			return true
		}
	}
	if start := s.stmtStart[d.Position.Filename][d.Position.Line]; start > 0 && start != d.Position.Line {
		for _, line := range []int{start, start - 1} {
			key.line = line
			if s.sup[key] {
				return true
			}
		}
	}
	return false
}

// suppressesAt reports whether a finding of the named analyzer at pos
// would be suppressed; propagation uses it to drop justified base facts
// before they reach any caller.
func (s *suppressor) suppressesAt(fset *token.FileSet, analyzer string, pos token.Pos) bool {
	return s.suppresses(Diagnostic{Analyzer: analyzer, Position: fset.Position(pos)})
}

// newSuppressor scans every comment of every package for ignore
// directives and records multi-line statement extents. A directive names
// one or more analyzers and must carry a reason; malformed directives
// come back as diagnostics keyed by package path so typos cannot
// silently disable a check.
func newSuppressor(pkgs []*Package) (*suppressor, map[string][]Diagnostic) {
	s := &suppressor{
		sup:       map[suppressionKey]bool{},
		stmtStart: map[string]map[int]int{},
	}
	bad := map[string][]Diagnostic{}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			s.recordStmtExtents(pkg.Fset, f)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignoreDirective) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, ignoreDirective)
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						bad[pkg.Path] = append(bad[pkg.Path], Diagnostic{
							Analyzer: "lintdirective",
							Position: pos,
							Message:  "malformed ignore: want //lint:ignore <analyzer>[,<analyzer>] <reason>",
						})
						continue
					}
					for _, name := range strings.Split(fields[0], ",") {
						if !known[name] {
							bad[pkg.Path] = append(bad[pkg.Path], Diagnostic{
								Analyzer: "lintdirective",
								Position: pos,
								Message:  fmt.Sprintf("ignore names unknown analyzer %q", name),
							})
							continue
						}
						s.sup[suppressionKey{pos.Filename, pos.Line, name}] = true
					}
				}
			}
		}
	}
	return s, bad
}

// recordStmtExtents maps every line of every statement (and
// package-level value spec) to the start line of the innermost statement
// covering it. Inspect visits parents before children, so nested
// statements override the spans of their containers — a directive above
// an if statement covers a finding in its multi-line condition but never
// reaches into the body, whose statements carry their own start lines.
func (s *suppressor) recordStmtExtents(fset *token.FileSet, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case ast.Stmt, *ast.ValueSpec:
		default:
			return true
		}
		start := fset.Position(n.Pos()).Line
		end := fset.Position(n.End()).Line
		file := fset.Position(n.Pos()).Filename
		m := s.stmtStart[file]
		if m == nil {
			m = map[int]int{}
			s.stmtStart[file] = m
		}
		for line := start; line <= end; line++ {
			m[line] = start
		}
		return true
	})
}
