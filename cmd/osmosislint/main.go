// Command osmosislint runs the repository's domain-specific static
// analyzers (determinism, unitsafety, panicfree, errcheck, hotpath,
// shardsafe, unused) over module packages and exits nonzero on any
// finding.
//
// Usage:
//
//	osmosislint [-analyzers list] [-json] [-globals] [-par n] [packages ...]
//
// Package patterns are directories relative to the module root, with
// "/..." expanding to a subtree; the default is "./...", which also
// loads each nested module (the benchmark harness) as a root package
// whose uses count for the unused analyzer. All loaded packages are
// analyzed as one program, so the transitive analyzers (determinism,
// hotpath, shardsafe, unused) see call chains across package
// boundaries. Findings are printed one per line as
// path:line:col: analyzer: message; with -json they are emitted as a
// sorted JSON array instead, each entry carrying the interprocedural
// call chain when there is one. -globals switches to inventory mode:
// instead of linting, print the program's package-level variables with
// their writing functions (the shared-state inventory). Suppress an
// individual finding with a comment on the same or preceding line:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	analyzerList := flag.String("analyzers", "",
		"comma-separated analyzers to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false,
		"emit findings as a sorted JSON array (machine-readable, with call chains)")
	globals := flag.Bool("globals", false,
		"print the shared-state inventory (package-level variables and their writers) instead of linting")
	par := flag.Int("par", 0,
		"analysis worker count (0 selects GOMAXPROCS); output is identical at any setting")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := analysis.ByName(*analyzerList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	prog := analysis.NewProgram(pkgs)

	if *globals {
		return printGlobals(prog, *jsonOut)
	}

	diags := prog.Run(analyzers, *par)
	for i := range diags {
		relativize(cwd, &diags[i])
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "osmosislint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// jsonDiagnostic is the stable machine-readable shape of one finding.
type jsonDiagnostic struct {
	File     string           `json:"file"`
	Line     int              `json:"line"`
	Col      int              `json:"col"`
	Analyzer string           `json:"analyzer"`
	Message  string           `json:"message"`
	Chain    []analysis.Frame `json:"chain,omitempty"`
}

// writeJSON emits the diagnostics as one sorted JSON array. An empty
// result is the literal "[]", never "null", so consumers can always
// iterate.
func writeJSON(w *os.File, diags []analysis.Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:     d.Position.Filename,
			Line:     d.Position.Line,
			Col:      d.Position.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Chain:    d.Chain,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// printGlobals emits the shared-state inventory: every package-level
// variable of the program and the declared functions that write it.
// Informational — always exits 0.
func printGlobals(prog *analysis.Program, jsonOut bool) int {
	inv := prog.SharedState()
	if jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(inv); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		return 0
	}
	for _, g := range inv {
		writers := "(none found)"
		if len(g.Writers) > 0 {
			writers = strings.Join(g.Writers, ", ")
		}
		fmt.Printf("%s.%s %s\n    written by: %s\n", g.Pkg, g.Name, g.Type, writers)
	}
	return 0
}

// relativize shortens the diagnostic's paths relative to cwd for
// readable, clickable output.
func relativize(cwd string, d *analysis.Diagnostic) {
	d.Position.Filename = relPath(cwd, d.Position.Filename)
	for i := range d.Chain {
		d.Chain[i].File = relPath(cwd, d.Chain[i].File)
	}
}

func relPath(cwd, path string) string {
	if rel, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
