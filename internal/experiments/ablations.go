package experiments

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/fabric"
	"repro/internal/fc"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func init() {
	mustRegister("ablation-flppr-k", "Ablation: FLPPR sub-scheduler count vs delay and throughput", runAblationFLPPRK)
	mustRegister("ablation-islip-iters", "Ablation: iSLIP iteration count under non-uniform traffic", runAblationISLIPIters)
	mustRegister("ablation-receivers", "Ablation: receiver count per egress beyond dual", runAblationReceivers)
	mustRegister("ablation-credits", "Ablation: inter-stage buffer depth vs the deterministic-RTT bound", runAblationCredits)
}

// runAblationFLPPRK sweeps the FLPPR parallelism K: K=log2(N) is the
// paper's choice; fewer sub-schedulers lose matching quality at load,
// more add no grant-latency benefit.
func runAblationFLPPRK(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ablation-flppr-k", Title: "FLPPR sub-scheduler count K"}
	warm, meas := cfg.warmupMeasure(1500, 6000)
	const n = 64

	tb := stats.NewTable("64 ports, uniform traffic", "k")
	delayLight := tb.AddSeries("delay-cycles-at-0.3")
	delayHeavy := tb.AddSeries("delay-cycles-at-0.95")
	thrHeavy := tb.AddSeries("throughput-at-0.99")

	for _, k := range []int{1, 2, 4, 6, 8} {
		k := k
		mk := func() sched.Scheduler { return sched.NewFLPPR(n, k) }
		light, err := crossbar.Sweep(crossbar.Config{N: n, Receivers: 2}, mk, []float64{0.3}, cfg.seed(), warm, meas)
		if err != nil {
			return nil, err
		}
		heavy, err := crossbar.Sweep(crossbar.Config{N: n, Receivers: 2}, mk, []float64{0.95, 0.99}, cfg.seed(), warm, meas)
		if err != nil {
			return nil, err
		}
		delayLight.Add(float64(k), light[0].MeanSlots)
		delayHeavy.Add(float64(k), heavy[0].MeanSlots)
		thrHeavy.Add(float64(k), heavy[1].Throughput)
	}
	res.Tables = append(res.Tables, tb)

	res.AddFinding("K=log2N sustains saturation",
		"log2 N iterations needed for good utilization [17]",
		fmt.Sprintf("throughput at 0.99 load: K=1 %.3f vs K=6 %.3f", thrHeavy.YAt(1), thrHeavy.YAt(6)),
		thrHeavy.YAt(6) > 0.93)
	res.AddFinding("diminishing returns past log2N",
		"additional parallelism buys little once iterations suffice",
		fmt.Sprintf("K=6 %.3f vs K=8 %.3f at 0.99", thrHeavy.YAt(6), thrHeavy.YAt(8)),
		thrHeavy.YAt(8) < thrHeavy.YAt(6)+0.05)
	res.AddFinding("light-load delay insensitive to K",
		"grant latency stays ~1 cycle regardless of K",
		fmt.Sprintf("delay at 0.3 load: K=1 %.2f, K=8 %.2f cycles", delayLight.YAt(1), delayLight.YAt(8)),
		delayLight.YAt(8) < delayLight.YAt(1)*1.5+1)
	return res, nil
}

// runAblationISLIPIters shows why one iteration is not enough: under the
// diagonal stress pattern the single-iteration arbiter loses throughput
// that log2 N iterations recover.
func runAblationISLIPIters(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ablation-islip-iters", Title: "iSLIP iterations under diagonal traffic"}
	warm, meas := cfg.warmupMeasure(1500, 6000)
	const n = 32

	tb := stats.NewTable("32 ports, diagonal pattern at 0.95 load", "iterations")
	thr := tb.AddSeries("acceptance-ratio")
	delay := tb.AddSeries("delay-cycles")
	for _, iters := range []int{1, 2, 3, 5} {
		sw, err := crossbar.New(crossbar.Config{N: n, Receivers: 1, Scheduler: sched.NewISLIP(n, iters)})
		if err != nil {
			return nil, err
		}
		gens, err := traffic.Build(traffic.Config{Kind: traffic.KindDiagonal, N: n, Load: 0.95, Seed: cfg.seed()})
		if err != nil {
			return nil, err
		}
		m, err := sw.Run(gens, warm, meas)
		if err != nil {
			return nil, err
		}
		thr.Add(float64(iters), m.AcceptanceRatio())
		delay.Add(float64(iters), m.MeanLatencySlots())
	}
	res.Tables = append(res.Tables, tb)

	res.AddFinding("iterations help non-uniform traffic",
		"multiple iterations required for good utilization under stress",
		fmt.Sprintf("acceptance: 1 iter %.3f vs log2N iters %.3f", thr.YAt(1), thr.YAt(5)),
		thr.YAt(5) >= thr.YAt(1))
	return res, nil
}

// runAblationReceivers extends Fig. 7 beyond the paper: how much of the
// dual-receiver gain remains at 3 or 4 receivers?
func runAblationReceivers(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ablation-receivers", Title: "Receiver count per egress"}
	warm, meas := cfg.warmupMeasure(1500, 6000)
	const n = 64

	tb := stats.NewTable("64 ports, uniform 0.9 load", "receivers")
	delay := tb.AddSeries("mean-delay")
	for _, r := range []int{1, 2, 3, 4} {
		rs, err := crossbar.Sweep(crossbar.Config{N: n, Receivers: r},
			func() sched.Scheduler { return sched.NewFLPPR(n, 0) },
			[]float64{0.9}, cfg.seed(), warm, meas)
		if err != nil {
			return nil, err
		}
		delay.Add(float64(r), rs[0].MeanSlots)
	}
	res.Tables = append(res.Tables, tb)

	gain12 := delay.YAt(1) - delay.YAt(2)
	gain24 := delay.YAt(2) - delay.YAt(4)
	res.AddFinding("second receiver carries most of the benefit",
		"the dual-path choice is the sweet spot (implicit in SV)",
		fmt.Sprintf("1->2 receivers saves %.2f cycles; 2->4 saves %.2f", gain12, gain24),
		gain12 > gain24)
	return res, nil
}

// runAblationCredits verifies the deterministic-RTT sizing rule from the
// flow-control design: capacity below the loop RTT starves throughput,
// capacity at the bound sustains it, capacity above adds nothing.
func runAblationCredits(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "ablation-credits", Title: "Inter-stage buffer depth vs FC loop RTT"}
	warm, meas := cfg.warmupMeasure(500, 4000)
	const (
		hosts = 32
		radix = 8
		linkD = 4
	)
	bound := fc.BufferFor(fc.LoopRTT(linkD, 1), 2)
	x, err := fabric.NewXGFT(hosts, radix, 0)
	if err != nil {
		return nil, err
	}

	tb := stats.NewTable("32-host fat tree, uniform 0.9 load", "capacity_cells")
	thr := tb.AddSeries("throughput")
	for _, capacity := range []int{bound / 4, bound / 2, bound, bound * 2} {
		if capacity < 1 {
			capacity = 1
		}
		_, m, err := runFabric(fabric.Config{Network: x, LinkDelaySlots: linkD, InputCapacity: capacity, Shards: cfg.Par},
			traffic.Config{Kind: traffic.KindUniform, Load: 0.9, Seed: cfg.seed()}, warm, meas)
		if err != nil {
			return nil, err
		}
		thr.Add(float64(capacity), m.ThroughputPerHost(hosts))
	}
	res.Tables = append(res.Tables, tb)

	res.AddFinding("RTT-sized buffers suffice",
		"deterministic FC RTT allows straightforward buffer sizing (SIV.B)",
		fmt.Sprintf("throughput at capacity=%d (bound): %.3f; at 2x: %.3f", bound, thr.YAt(float64(bound)), thr.YAt(float64(2*bound))),
		thr.YAt(float64(bound)) > 0.85*thr.YAt(float64(2*bound)))
	res.AddFinding("undersized buffers starve",
		"capacity below the loop RTT cannot sustain full rate",
		fmt.Sprintf("capacity %d: %.3f vs bound %d: %.3f", bound/4, thr.YAt(float64(bound/4)), bound, thr.YAt(float64(bound))),
		thr.YAt(float64(bound/4)) < thr.YAt(float64(bound)))
	return res, nil
}
