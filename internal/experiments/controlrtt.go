package experiments

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// runControlRTT reproduces the argument behind buffer placement option 3
// (and ref [18], "Performance of i-SLIP scheduling with large round-trip
// latency"): every cycle of request/grant round trip between the VOQs
// and the central arbiter adds directly to the base latency and inflates
// the buffers needed, so the ingress buffers must sit as close to the
// crossbar as possible — which is exactly what option 3 does and option
// 2 (buffers at the previous stage's outputs, scheduler across the long
// cable) destroys.
func runControlRTT(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "control-rtt", Title: "Scheduling latency vs control-path RTT (ref [18])"}
	warm, meas := cfg.warmupMeasure(1500, 6000)
	const n = 32

	tb := stats.NewTable("32 ports, uniform traffic, FLPPR", "control_rtt_cycles")
	delayLight := tb.AddSeries("delay-cycles-at-0.2")
	delayHeavy := tb.AddSeries("delay-cycles-at-0.9")
	voqDepth := tb.AddSeries("max-voq-depth-at-0.9")

	for _, rtt := range []int{0, 2, 5, 10, 20} {
		for _, load := range []float64{0.2, 0.9} {
			sw, err := crossbar.New(crossbar.Config{
				N: n, Receivers: 2,
				ControlRTTCycles: rtt,
			})
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
			if m.OrderViolations != 0 {
				res.AddFinding("ordering", "order holds under delayed grants",
					fmt.Sprintf("%d violations at rtt=%d", m.OrderViolations, rtt), false)
			}
			switch load {
			case 0.2:
				delayLight.Add(float64(rtt), m.MeanLatencySlots())
			default:
				delayHeavy.Add(float64(rtt), m.MeanLatencySlots())
				voqDepth.Add(float64(rtt), float64(m.MaxVOQDepth))
			}
		}
	}
	res.Tables = append(res.Tables, tb)

	res.AddFinding("RTT adds directly to base latency",
		"a long control cable adds its full round trip to every packet (SIV.A option 2 flaw)",
		fmt.Sprintf("light-load delay: %.2f cycles at rtt 0 vs %.2f at rtt 10 (delta %.1f)",
			delayLight.YAt(0), delayLight.YAt(10), delayLight.YAt(10)-delayLight.YAt(0)),
		delayLight.YAt(10)-delayLight.YAt(0) > 9 && delayLight.YAt(10)-delayLight.YAt(0) < 11)
	res.AddFinding("buffers must grow with RTT",
		"larger scheduling round trips require deeper ingress buffers (ref [18])",
		fmt.Sprintf("max VOQ depth at 0.9 load: %d at rtt 0 vs %d at rtt 20",
			int(voqDepth.YAt(0)), int(voqDepth.YAt(20))),
		voqDepth.YAt(20) > voqDepth.YAt(0))
	res.AddFinding("throughput survives",
		"pipelining keeps throughput; only latency and buffering pay",
		fmt.Sprintf("heavy-load delay grows from %.1f to %.1f cycles across the sweep",
			delayHeavy.YAt(0), delayHeavy.YAt(20)),
		delayHeavy.YAt(20) < delayHeavy.YAt(0)+30)
	return res, nil
}
