// The workloads arena: every scheduler crossed with every generated
// workload kind in the traffic library, scored on throughput, tail
// delay, and service fairness — the scheduler-selection matrix for the
// HPC/AI traffic the paper's fabric is pitched at. Combos fan out over
// internal/parallel keyed by combo index, so the report is byte-
// identical at any -par.

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/crossbar"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func init() {
	mustRegister("workloads", "Workload arena: schedulers x traffic kinds", runWorkloads)
}

// arenaN is the arena's port count: big enough for the collectives'
// structure (a 5-level binary tree, 8-wide incast) while keeping the
// 4x12 combo sweep cheap.
const arenaN = 32

// arenaLoad stresses the schedulers without saturating the uniform
// baseline.
const arenaLoad = 0.9

// arenaSchedulers lists the contenders; the factory takes the combo's
// derived seed so randomized schedulers stay deterministic per combo.
var arenaSchedulers = []struct {
	name string
	mk   func(seed uint64) sched.Scheduler
}{
	{"flppr", func(uint64) sched.Scheduler { return sched.NewFLPPR(arenaN, 0) }},
	{"islip", func(uint64) sched.Scheduler { return sched.NewISLIP(arenaN, 0) }},
	{"pim", func(seed uint64) sched.Scheduler { return sched.NewPIM(arenaN, 0, seed) }},
	{"lqf", func(uint64) sched.Scheduler { return sched.NewLQF(arenaN) }},
}

// arenaKinds are the workload patterns scored: every generated kind in
// the traffic library, in Kind order (traces replay recorded workloads
// and are exercised by the replay finding instead).
var arenaKinds = []traffic.Kind{
	traffic.KindUniform, traffic.KindBursty, traffic.KindHotspot,
	traffic.KindPermutation, traffic.KindDiagonal, traffic.KindBimodal,
	traffic.KindIncast, traffic.KindMMPP, traffic.KindParetoOnOff,
	traffic.KindAllToAll, traffic.KindRingAllReduce, traffic.KindTreeAllReduce,
}

func arenaTraffic(kind traffic.Kind, seed uint64) traffic.Config {
	return traffic.Config{
		Kind: kind, N: arenaN, Load: arenaLoad, Seed: seed,
		HotPort: 0, HotFraction: 0.5,
	}
}

type arenaScore struct {
	acceptance float64 // delivered/offered
	p99        float64 // end-to-end p99 delay, packet cycles
	fairness   float64 // Jain index over per-source service ratios
	err        error
}

func runWorkloads(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "workloads", Title: "Workload arena: schedulers x traffic kinds"}
	warm, meas := cfg.warmupMeasure(1000, 8000)

	nk := len(arenaKinds)
	scores := parallel.Map(len(arenaSchedulers)*nk, cfg.Par, func(i int) arenaScore {
		s := arenaSchedulers[i/nk]
		kind := arenaKinds[i%nk]
		seed := sim.DeriveSeed(cfg.seed(), uint64(i))
		sw, err := crossbar.New(crossbar.Config{N: arenaN, Receivers: 2, Scheduler: s.mk(seed)})
		if err != nil {
			return arenaScore{err: err}
		}
		gens, err := traffic.Build(arenaTraffic(kind, seed))
		if err != nil {
			return arenaScore{err: err}
		}
		m, err := sw.Run(gens, warm, meas)
		if err != nil {
			return arenaScore{err: err}
		}
		return arenaScore{
			acceptance: m.AcceptanceRatio(),
			p99:        float64(m.Latency.P99()) / float64(m.CycleTime),
			fairness:   m.ServiceFairness(),
		}
	})
	for _, s := range scores {
		if s.err != nil {
			return nil, s.err
		}
	}

	kindNames := make([]string, nk)
	for i, k := range arenaKinds {
		kindNames[i] = k.String()
	}
	legend := make([]string, nk)
	for i, name := range kindNames {
		legend[i] = fmt.Sprintf("%d=%s", i, name)
	}
	tbThr := stats.NewTable("Acceptance ratio (delivered/offered), 32 ports, load 0.9 ["+strings.Join(legend, " ")+"]",
		"pattern_idx", "acceptance")
	tbP99 := stats.NewTable("End-to-end p99 delay, packet cycles", "pattern_idx", "p99_cycles")
	tbFair := stats.NewTable("Jain service fairness over per-source service ratios", "pattern_idx", "jain_fairness")
	for si, s := range arenaSchedulers {
		thr := tbThr.AddSeries(s.name)
		p99 := tbP99.AddSeries(s.name)
		fair := tbFair.AddSeries(s.name)
		for ki := range arenaKinds {
			sc := scores[si*nk+ki]
			thr.Add(float64(ki), sc.acceptance)
			p99.Add(float64(ki), sc.p99)
			fair.Add(float64(ki), sc.fairness)
		}
	}
	res.Tables = append(res.Tables, tbThr, tbP99, tbFair)

	// Helper lookups into the score grid.
	at := func(schedName string, kind traffic.Kind) arenaScore {
		si, ki := -1, -1
		for i, s := range arenaSchedulers {
			if s.name == schedName {
				si = i
			}
		}
		for i, k := range arenaKinds {
			if k == kind {
				ki = i
			}
		}
		return scores[si*nk+ki]
	}

	// Finding 1: admissible patterns run at (near) full acceptance on the
	// production scheduler.
	minAdm := 1.0
	for _, k := range []traffic.Kind{traffic.KindUniform, traffic.KindPermutation, traffic.KindDiagonal, traffic.KindAllToAll} {
		if a := at("flppr", k).acceptance; a < minAdm {
			minAdm = a
		}
	}
	res.AddFinding("admissible patterns sustain load 0.9",
		"a non-blocking crossbar with VOQs serves any admissible pattern at offered load",
		fmt.Sprintf("min acceptance %.3f across uniform/permutation/diagonal/alltoall under flppr", minAdm),
		minAdm > 0.95)

	// Finding 2: a persistent hotspot saturates one egress line and no
	// scheduler can do better than drain it at line rate while serving
	// the subcritical remainder in full: acceptance -> (non-hot offered +
	// one line) / total offered, identically for every scheduler.
	offeredHot := arenaLoad * (float64(arenaN-1)*0.5 + 0.5)
	total := float64(arenaN) * arenaLoad
	hotBound := (total - offeredHot + 1) / total
	hotWorst, hotBest := 1.0, 0.0
	for _, s := range arenaSchedulers {
		a := at(s.name, traffic.KindHotspot).acceptance
		if a < hotWorst {
			hotWorst = a
		}
		if a > hotBest {
			hotBest = a
		}
	}
	res.AddFinding("hotspot acceptance pins to the egress-line bound for every scheduler",
		fmt.Sprintf("acceptance -> (non-hot traffic + 1 line)/offered = %.3f; the line, not the arbiter, is the limit", hotBound),
		fmt.Sprintf("acceptance in [%.3f, %.3f] across all schedulers", hotWorst, hotBest),
		hotWorst > hotBound-0.02 && hotBest < hotBound+0.02)

	// Finding 2b: the rotating incast storm is long-run admissible (each
	// output is the victim only 1/N of the time), so its damage is tail
	// delay — epochs of fan-in queueing — not sustained throughput.
	uni, inc := at("flppr", traffic.KindUniform), at("flppr", traffic.KindIncast)
	res.AddFinding("incast taxes the tail, not long-run throughput",
		"fan-in storms queue behind one line for whole epochs: p99 explodes while rotation keeps the aggregate admissible",
		fmt.Sprintf("incast p99 %.0f cycles vs uniform %.0f under flppr", inc.p99, uni.p99),
		inc.p99 > 20*uni.p99)

	// Finding 3: fairness — on every steady pattern the arbiter serves
	// sources in proportion to demand, hotspot overload included (the
	// congestion is shared, not dumped on a few inputs). Incast is the
	// deliberate exception: within a finite window the most recent
	// storms are still queued behind the victim line, so windowed
	// per-source service is inherently lopsided there.
	minFair := 1.0
	worstKind := traffic.KindUniform
	for _, k := range arenaKinds {
		if k == traffic.KindIncast {
			continue
		}
		if f := at("flppr", k).fairness; f < minFair {
			minFair = f
			worstKind = k
		}
	}
	res.AddFinding("proportional service on every steady pattern",
		"Jain fairness ~ 1 outside incast: equal-demand sources get equal service, congestion is shared",
		fmt.Sprintf("min Jain %.3f under flppr (worst steady pattern: %s; windowed incast %.3f)",
			minFair, worstKind, at("flppr", traffic.KindIncast).fairness),
		minFair > 0.95)

	// Finding 4: heavy tails cost tail delay, not throughput — pareto
	// bursts keep near-uniform acceptance but inflate p99 over uniform.
	up, pp := at("flppr", traffic.KindUniform), at("flppr", traffic.KindParetoOnOff)
	res.AddFinding("heavy-tail bursts tax the tail, not the mean rate",
		"on/off sources with Pareto bursts congest transiently: acceptance holds, p99 inflates",
		fmt.Sprintf("pareto acceptance %.3f vs uniform %.3f; p99 %.0f vs %.0f cycles", pp.acceptance, up.acceptance, pp.p99, up.p99),
		pp.acceptance > 0.9 && pp.p99 > 2*up.p99)

	// Finding 5: a recorded trace replays bit-exactly — same metrics from
	// the file as from the live generators.
	live, err := crossbar.New(crossbar.Config{N: arenaN, Receivers: 2, Scheduler: sched.NewFLPPR(arenaN, 0)})
	if err != nil {
		return nil, err
	}
	tcfg := arenaTraffic(traffic.KindBursty, sim.DeriveSeed(cfg.seed(), 9000))
	gens, err := traffic.Build(tcfg)
	if err != nil {
		return nil, err
	}
	lm, err := live.Run(gens, warm, meas)
	if err != nil {
		return nil, err
	}
	tr, err := traffic.RecordTrace(tcfg, warm+meas)
	if err != nil {
		return nil, err
	}
	replay, err := crossbar.New(crossbar.Config{N: arenaN, Receivers: 2, Scheduler: sched.NewFLPPR(arenaN, 0)})
	if err != nil {
		return nil, err
	}
	rm, err := replay.Run(tr.Generators(), warm, meas)
	if err != nil {
		return nil, err
	}
	identical := lm.Offered == rm.Offered && lm.Delivered == rm.Delivered &&
		lm.Latency.N() == rm.Latency.N() && lm.Latency.P99() == rm.Latency.P99()
	res.AddFinding("trace replay is bit-exact",
		"a v1 trace reruns the workload with identical metrics",
		fmt.Sprintf("live %d/%d cells p99 %v; replay %d/%d cells p99 %v",
			lm.Offered, lm.Delivered, lm.Latency.P99(), rm.Offered, rm.Delivered, rm.Latency.P99()),
		identical)

	return res, nil
}
