// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each experiment is
// a self-contained Run function producing printable series tables and a
// set of headline findings ("who wins, by what factor, where the
// crossover falls") that the tests and EXPERIMENTS.md assert against.
//
// The same table backs the cmd/experiments binary and the repo-level
// benchmarks: benches call Run with Quick=true for reduced windows.
package experiments

import (
	"fmt"
	"io"

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

// experiments lists every experiment in paper order, then the
// ablations.
var experiments = []Experiment{
	{ID: "table1", Title: "Table 1: key HPC fabric requirements, verified on the ASIC-target OSMOSIS switch", Run: runTable1},
	{ID: "fig1", Title: "Fig. 1: control and data latency of a single-stage centrally scheduled fabric vs machine-room size", Run: runFig1},
	{ID: "fig2", Title: "Fig. 2: buffer placement options around the optical crossbar", Run: runFig2},
	{ID: "fig4", Title: "Figs. 3/4: local and remote flow-control loops with input buffers only", Run: runFig4},
	{ID: "fig6", Title: "Fig. 6: FLPPR request-to-grant latency vs prior art", Run: runFig6},
	{ID: "fig7", Title: "Fig. 7: OSMOSIS delay versus throughput, single vs dual receiver", Run: runFig7},
	{ID: "fig10", Title: "Fig. 10: OSNR penalty vs SOA input power for DPSK and NRZ", Run: runFig10},
	{ID: "stages", Title: "SVI.C: stage counts and OEO savings for a 2048-port fabric", Run: runStages},
	{ID: "stages-sim", Title: "SVI.C simulated: end-to-end latency of 3-stage vs 5-stage vs 9-stage fabrics", Run: runStagesSim},
	{ID: "power", Title: "SI/SVII: power scaling — CMOS vs SOA switching", Run: runPower},
	{ID: "scaling", Title: "SVII: OSMOSIS scaling outlook vs the electronic single-stage limit", Run: runScaling},
	{ID: "snf", Title: "SIV: store-and-forward penalty vs packet size", Run: runSNF},
	{ID: "guard", Title: "SIV.C/SV: guard time vs effective user bandwidth", Run: runGuard},
	{ID: "tech", Title: "SII/SIV.C: optical switching technology selection by guard time", Run: runTechSelect},
	{ID: "fec", Title: "SIV.C/SV: FEC and retransmission error budget", Run: runFEC},
	{ID: "bvn", Title: "SVI.D: load-balanced Birkhoff-von Neumann switch vs OSMOSIS", Run: runBvN},
	{ID: "container", Title: "SII/SVI.D: burst/container switching latency vs OSMOSIS per-cell scheduling", Run: runContainer},
	{ID: "deflect", Title: "SII: Data-Vortex-style deflection routing vs buffered VOQ switching", Run: runDeflect},
	{ID: "control-rtt", Title: "ref [18]/SIV.A: scheduling latency vs adapter-to-scheduler distance", Run: runControlRTT},
	{ID: "faults", Title: "Graceful degradation under deterministic fault injection", Run: runFaults},
	{ID: "workloads", Title: "Workload arena: schedulers x traffic kinds", Run: runWorkloads},
	{ID: "ablation-flppr-k", Title: "Ablation: FLPPR sub-scheduler count vs delay and throughput", Run: runAblationFLPPRK},
	{ID: "ablation-islip-iters", Title: "Ablation: iSLIP iteration count under non-uniform traffic", Run: runAblationISLIPIters},
	{ID: "ablation-receivers", Title: "Ablation: receiver count per egress beyond dual", Run: runAblationReceivers},
	{ID: "ablation-credits", Title: "Ablation: inter-stage buffer depth vs the deterministic-RTT bound", Run: runAblationCredits},
	{ID: "ablation-interleave", Title: "Ablation: FEC interleaving depth vs burst-error survival", Run: runAblationInterleave},
}

// All lists the experiments in paper order.
func All() []Experiment {
	return append([]Experiment(nil), experiments...)
}

// IDs lists the experiment IDs in paper order.
func IDs() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.ID
	}
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
}
