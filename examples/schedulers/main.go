// Schedulers: head-to-head comparison of the crossbar arbiters on one
// 64-port switch — FLPPR (the paper's contribution), combinational
// iSLIP (an ASIC-speed reference), pipelined iSLIP (the Fig.-6 prior
// art), PIM, and the ideal output-queued bound. Prints the Fig. 6/7
// story as one table.
package main

import (
	"fmt"
	"log"

	"repro/internal/crossbar"
	"repro/internal/sched"
	"repro/internal/traffic"
)

func main() {
	const n = 64
	// sched names each contender; "" marks the ideal output-queued
	// bound, which has no arbiter.
	contenders := []struct{ label, sched string }{
		{"flppr (dual rx)", "flppr"},
		{"islip log2N iters", "islip"},
		{"pipelined-islip", "pipelined-islip"},
		{"pim log2N iters", "pim"},
		{"lqf (weight ref)", "lqf"},
		{"ideal output-queued", ""},
	}
	loads := []float64{0.1, 0.5, 0.9, 0.99}

	fmt.Printf("%-22s", "scheduler \\ load")
	for _, l := range loads {
		fmt.Printf("  %10.2f", l)
	}
	fmt.Println("\n  (cells of mean delay in 51.2 ns cycles; grant latency in parentheses)")
	for _, c := range contenders {
		fmt.Printf("%-22s", c.label)
		oq := c.sched == ""
		cfg := crossbar.Config{N: n, Receivers: 2, IdealOQ: oq}
		if !oq {
			mk, err := sched.Factory(c.sched, n, 0, 1)
			if err != nil {
				log.Fatal(err)
			}
			cfg.NewScheduler = mk
		}
		for _, load := range loads {
			sw, err := crossbar.New(cfg)
			if err != nil {
				log.Fatal(err)
			}
			gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: n, Load: load, Seed: 3})
			if err != nil {
				log.Fatal(err)
			}
			m, err := sw.Run(gens, 1500, 6000)
			if err != nil {
				log.Fatal(err)
			}
			if oq {
				fmt.Printf("  %7.2f   ", m.MeanLatencySlots())
			} else {
				fmt.Printf("  %5.1f(%3.1f)", m.MeanLatencySlots(), m.GrantLatency.Mean())
			}
		}
		fmt.Println()
	}

	fmt.Println("\nreading the table:")
	fmt.Println("  - flppr grants in ~1 cycle at light load; pipelined-islip needs log2(64)=6 (Fig. 6)")
	fmt.Println("  - the dual-receiver flppr curve stays near the output-queued ideal until ~0.9 (Fig. 7)")
	fmt.Println("  - all VOQ schedulers sustain >95% throughput at 0.99 load (Table 1)")
}
