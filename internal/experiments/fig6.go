package experiments

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// runFig6 measures the request-to-grant latency (VOQ waiting time in
// packet cycles) of the FLPPR scheduler against the pipelined prior art
// on a 64-port switch across light-to-moderate loads. Paper: FLPPR
// grants a request in a single packet cycle where prior art needs
// log2(64) = 6 pipeline cycles.
func runFig6(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "fig6", Title: "Request-to-grant latency (Fig. 6)"}
	warm, meas := cfg.warmupMeasure(1000, 5000)
	const n = 64

	tb := stats.NewTable("Mean request-to-grant latency, 64 ports", "load")
	flppr := tb.AddSeries("flppr")
	prior := tb.AddSeries("prior-art-pipelined-islip")

	loads := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	for _, load := range loads {
		for _, kind := range []string{"flppr", "prior"} {
			cc := crossbar.Config{N: n, Receivers: 2}
			if kind == "prior" {
				cc.NewScheduler = func() sched.Scheduler { return sched.NewPipelinedISLIP(n, 0) }
			}
			sw, err := crossbar.New(cc)
			if err != nil {
				return nil, err
			}
			gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: n, Load: load, Seed: cfg.seed()})
			if err != nil {
				return nil, err
			}
			m, err := sw.Run(gens, warm, meas)
			if err != nil {
				return nil, err
			}
			if kind == "flppr" {
				flppr.Add(load, m.GrantLatency.Mean())
			} else {
				prior.Add(load, m.GrantLatency.Mean())
			}
		}
	}
	res.Tables = append(res.Tables, tb)

	fl := flppr.YAt(0.1)
	pl := prior.YAt(0.1)
	res.AddFinding("light-load grant latency",
		"FLPPR: 1 packet cycle; prior art: log2(64) = 6 cycles (Fig. 6)",
		fmt.Sprintf("FLPPR %.2f cycles, prior art %.2f cycles at load 0.1", fl, pl),
		fl < 1.3 && pl > 5.5 && pl < 7)
	res.AddFinding("advantage persists to moderate load",
		"single-cycle grants under light to moderate loads",
		fmt.Sprintf("FLPPR %.2f vs prior %.2f cycles at load 0.5", flppr.YAt(0.5), prior.YAt(0.5)),
		flppr.YAt(0.5) < prior.YAt(0.5))
	res.AddFinding("latency gap factor",
		"~6x fewer cycles to first grant",
		fmt.Sprintf("%.1fx at load 0.1", pl/fl),
		pl/fl > 4)
	return res, nil
}
