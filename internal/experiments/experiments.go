// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each experiment is
// a self-contained Run function producing printable series tables and a
// set of headline findings ("who wins, by what factor, where the
// crossover falls") that the tests and EXPERIMENTS.md assert against.
//
// The same registry backs the cmd/experiments binary and the repo-level
// benchmarks: benches call Run with Quick=true for reduced windows.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/stats"
)

// RunConfig tunes an experiment run.
type RunConfig struct {
	// Quick shrinks simulation windows for benchmarks and smoke tests.
	Quick bool
	// Seed drives all stochastic inputs. The zero value is NOT a usable
	// seed: it means "unset" and selects DefaultSeed, so that the zero
	// RunConfig is runnable. Callers that accept seeds from users (the
	// cmd/experiments -seed flag) must reject an explicit 0 rather than
	// let it silently alias the default.
	Seed uint64
	// Par sets the spatial shard count for fabric-backed experiments
	// (fig2, fig4, stages-sim, ablation-credits): the fabric's switches
	// tick concurrently in conservative-lookahead windows. Results are
	// byte-identical at any value; 0 or 1 runs one shard.
	Par int
}

// DefaultSeed is the seed a zero RunConfig runs with; every recorded
// table in EXPERIMENTS.md was produced with it.
const DefaultSeed uint64 = 1

func (c RunConfig) seed() uint64 {
	if c.Seed == 0 {
		return DefaultSeed
	}
	return c.Seed
}

// warmupMeasure picks simulation windows by mode. Quick mode divides
// both windows by 8 but never below one slot for a window that was
// non-zero at full fidelity: a 0-slot measurement window would silently
// produce empty statistics, and a warm-up that vanishes entirely would
// bias them with transient startup state. (A warm-up of 0 requested at
// full fidelity stays 0 — some experiments deliberately measure the
// transient.)
func (c RunConfig) warmupMeasure(warm, meas uint64) (uint64, uint64) {
	if !c.Quick {
		return warm, meas
	}
	w, m := warm/8, meas/8
	if warm > 0 && w == 0 {
		w = 1
	}
	if meas > 0 && m == 0 {
		m = 1
	}
	return w, m
}

// Finding is one headline result with the paper's expectation alongside.
type Finding struct {
	Name string
	// Paper is what the publication reports (qualitative or numeric).
	Paper string
	// Measured is what this reproduction obtained.
	Measured string
	// Match reports whether the shape/claim holds.
	Match bool
}

// Result is a completed experiment.
type Result struct {
	ID, Title string
	Tables    []*stats.Table
	Findings  []Finding
}

// AddFinding appends a headline check.
func (r *Result) AddFinding(name, paper, measured string, match bool) {
	r.Findings = append(r.Findings, Finding{Name: name, Paper: paper, Measured: measured, Match: match})
}

// AllMatch reports whether every finding reproduced.
func (r *Result) AllMatch() bool {
	for _, f := range r.Findings {
		if !f.Match {
			return false
		}
	}
	return true
}

// Write renders the full result.
func (r *Result) Write(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n\n", r.ID, r.Title)
	for _, tb := range r.Tables {
		tb.Write(w)
		fmt.Fprintln(w)
	}
	for _, f := range r.Findings {
		status := "REPRODUCED"
		if !f.Match {
			status = "MISMATCH"
		}
		fmt.Fprintf(w, "[%s] %s\n    paper:    %s\n    measured: %s\n", status, f.Name, f.Paper, f.Measured)
	}
	fmt.Fprintln(w)
}

// Experiment couples an ID to its generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(RunConfig) (*Result, error)
}

var registry = map[string]Experiment{}

// canonical fixes the presentation order: paper order first, then the
// ablations. Unlisted experiments sort after these by ID.
var canonical = []string{
	"table1", "fig1", "fig2", "fig4", "fig6", "fig7", "fig10",
	"stages", "stages-sim", "power", "scaling", "snf", "guard", "tech", "fec", "bvn", "container", "deflect", "control-rtt", "faults", "workloads",
	"ablation-flppr-k", "ablation-islip-iters", "ablation-receivers", "ablation-credits", "ablation-interleave",
}

// mustRegister adds an experiment to the registry and panics on a
// duplicate ID. It is called only from package init functions, where a
// duplicate is a programmer error caught by the cheapest smoke test.
func mustRegister(id, title string, run func(RunConfig) (*Result, error)) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

func rank(id string) int {
	for i, c := range canonical {
		if c == id {
			return i
		}
	}
	return len(canonical)
}

// All lists the experiments in paper order.
func All() []Experiment {
	ids := make([]string, 0, len(registry))
	for id := range registry { //lint:ignore determinism keys are sorted before use
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		out = append(out, registry[id])
	}
	sort.SliceStable(out, func(i, j int) bool {
		return rank(out[i].ID) < rank(out[j].ID)
	})
	return out
}

// IDs lists the experiment IDs in paper order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
	}
	return e, nil
}
