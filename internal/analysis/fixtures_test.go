package analysis_test

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// fixtureCases maps each analyzer to its testdata directory and the
// synthetic import path the fixtures are checked under (determinism and
// panicfree only fire inside their scoped subtrees).
var fixtureCases = []struct {
	dir      string
	analyzer *analysis.Analyzer
	pkgPath  string
}{
	{"determinism", analysis.Determinism, "repro/internal/sim/fixture"},
	{"faultseed", analysis.Determinism, "repro/internal/fault/fixture"},
	{"unitsafety", analysis.UnitSafety, "repro/internal/optics/fixture"},
	{"panicfree", analysis.PanicFree, "repro/internal/fec/fixture"},
	{"errcheck", analysis.ErrCheck, "repro/internal/link/fixture"},
	{"hotpath", analysis.HotPath, "repro/internal/sched/fixture"},
	{"shardsafe", analysis.ShardSafe, "repro/internal/voq/fixture"},
}

// wantRe matches expectation comments: // want:<analyzer> "substring".
// The quoted substring is optional.
var wantRe = regexp.MustCompile(`// want:(\w+)(?: "([^"]*)")?`)

type expectation struct {
	analyzer string
	substr   string
	matched  bool
}

// loadFixture parses and type-checks every .go file in
// testdata/<dir> as one package under pkgPath, and collects the
// // want: expectations keyed by file:line.
func loadFixture(t *testing.T, dir, pkgPath string) (*analysis.Package, map[string][]*expectation) {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string][]*expectation{}
	return loadFixtureInto(t, loader, dir, pkgPath, wants), wants
}

// loadFixtureInto is loadFixture on a shared loader, adding to wants; a
// later fixture package can import an earlier one by its pkgPath.
func loadFixtureInto(t *testing.T, loader *analysis.Loader, dir, pkgPath string, wants map[string][]*expectation) *analysis.Package {
	t.Helper()
	root := filepath.Join("testdata", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(root, e.Name())
		f, err := loader.ParseFile(path, nil)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", path, i+1)
				wants[key] = append(wants[key], &expectation{analyzer: m[1], substr: m[2]})
			}
		}
	}
	pkg, err := loader.CheckSource(pkgPath, files)
	if err != nil {
		t.Fatalf("type-check fixtures in %s: %v", root, err)
	}
	return pkg
}

// checkWants matches every diagnostic to an expectation and reports
// the unexpected diagnostics and the unmet expectations.
func checkWants(t *testing.T, diags []analysis.Diagnostic, wants map[string][]*expectation) {
	t.Helper()
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Position.Filename, d.Position.Line)
		exp := match(wants[key], d)
		if exp == nil {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		exp.matched = true
	}
	for key, exps := range wants {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("%s: expected %s diagnostic matching %q, got none",
					key, exp.analyzer, exp.substr)
			}
		}
	}
}

// TestFixtures proves every analyzer fires on each seeded violation
// (bad.go) and stays quiet on compliant code (good.go).
func TestFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg, wants := loadFixture(t, tc.dir, tc.pkgPath)
			checkWants(t, analysis.RunAnalyzers(pkg, []*analysis.Analyzer{tc.analyzer}), wants)
		})
	}
}

// match finds the first unmatched expectation covering d.
func match(exps []*expectation, d analysis.Diagnostic) *expectation {
	for _, exp := range exps {
		if exp.matched || exp.analyzer != d.Analyzer {
			continue
		}
		if exp.substr != "" && !strings.Contains(d.Message, exp.substr) {
			continue
		}
		return exp
	}
	return nil
}

// TestUnusedFixture runs the unused analyzer over a three-package
// fixture program — a library, a main package and a root package
// standing for a nested module — and checks exactly what it reports:
// dead functions, methods, call chains and uncalled interface methods,
// but not main's callees, init, initializer references, a String only
// fmt calls, or what only the root package uses. Its data rules
// (testdata/unused/lib/data.go): write-only fields and unreferenced
// package-level vars and consts are reported; tagged and embedded
// fields, fields of a struct passed whole to fmt or encoding/json,
// compared with == or used as a map key, and an iota member a later
// used member depends on are not.
func TestUnusedFixture(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string][]*expectation{}
	lib := loadFixtureInto(t, loader, "unused/lib", "repro/internal/fixture/lib", wants)
	cmd := loadFixtureInto(t, loader, "unused/cmd", "repro/cmd/fixture", wants)
	bench := loadFixtureInto(t, loader, "unused/bench", "repro/fixturebench", wants)
	bench.Root = true
	prog := analysis.NewProgram([]*analysis.Package{lib, cmd, bench})
	checkWants(t, prog.Run([]*analysis.Analyzer{analysis.Unused}, 1), wants)
}

// TestUnusedQuietOnPartialLoad: a load of one package cannot see the
// callers elsewhere in the module, so unused must not report exported
// API there — osmosislint ./internal/sim stays clean.
func TestUnusedQuietOnPartialLoad(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{"./internal/sim", "./internal/fc"} {
		pkgs, err := loader.Load(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range analysis.NewProgram(pkgs).Run([]*analysis.Analyzer{analysis.Unused}, 1) {
			t.Errorf("partial load %s: %s", pattern, d)
		}
	}
}

// TestScopedAnalyzersStayQuietOutOfScope re-checks the determinism and
// panicfree bad fixtures under out-of-scope import paths: the same
// violations must produce no findings there.
func TestScopedAnalyzersStayQuietOutOfScope(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer *analysis.Analyzer
		pkgPath  string
	}{
		// determinism is scoped to sim/sched/crossbar/experiments/fault.
		{"determinism", analysis.Determinism, "repro/internal/optics"},
		// the DeriveSeed rule fires only inside internal/fault; the same
		// raw-seeded RNGs are legitimate in e.g. internal/link tests.
		{"faultseed", analysis.Determinism, "repro/internal/optics"},
		// panicfree is scoped to internal/ library code.
		{"panicfree", analysis.PanicFree, "repro/cmd/sometool"},
	}
	for _, tc := range cases {
		t.Run(tc.dir+"/"+tc.pkgPath, func(t *testing.T) {
			pkg, _ := loadFixture(t, tc.dir, tc.pkgPath)
			for _, d := range analysis.RunAnalyzers(pkg, []*analysis.Analyzer{tc.analyzer}) {
				t.Errorf("out-of-scope package %s still diagnosed: %s", tc.pkgPath, d)
			}
		})
	}
}

// TestIgnoreDirectiveValidation: a directive without a reason and one
// naming an unknown analyzer are themselves reported, and neither
// suppresses the finding underneath it.
func TestIgnoreDirectiveValidation(t *testing.T) {
	const src = `package fixture

func helper(s string) int {
	if s == "" {
		//lint:ignore panicfree
		panic("a")
	}
	if len(s) == 1 {
		//lint:ignore nosuchanalyzer some reason
		panic("b")
	}
	if len(s) == 2 {
		//lint:ignore panicfree justified invariant for the test
		panic("c")
	}
	return len(s)
}
`
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	f, err := loader.ParseFile("directive.go", src)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.CheckSource("repro/internal/fixture", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{analysis.PanicFree})
	got := map[string]bool{}
	for _, d := range diags {
		got[fmt.Sprintf("%s:%d", d.Analyzer, d.Position.Line)] = true
	}
	want := []string{
		"lintdirective:5", // missing reason
		"panicfree:6",     // not suppressed by the malformed directive
		"lintdirective:9", // unknown analyzer
		"panicfree:10",    // not suppressed by the bogus directive
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing diagnostic %s in %v", w, diags)
		}
	}
	if len(diags) != len(want) {
		t.Errorf("got %d diagnostics, want %d: %v", len(diags), len(want), diags)
	}
}

// TestByName resolves analyzer subsets and rejects unknown names.
func TestByName(t *testing.T) {
	all, err := analysis.ByName("")
	if err != nil || len(all) != 7 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 7, nil", len(all), err)
	}
	two, err := analysis.ByName("determinism, errcheck")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset = %d analyzers, err %v; want 2, nil", len(two), err)
	}
	if _, err := analysis.ByName("bogus"); err == nil {
		t.Error("ByName(bogus) should fail")
	}
}
