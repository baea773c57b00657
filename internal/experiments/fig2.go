package experiments

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func init() {
	mustRegister("fig2", "Fig. 2: buffer placement options around the optical crossbar", runFig2)
}

// oeoPerStage counts opto-electronic conversion pairs per switch stage
// for the three §IV.A placements: option 1 buffers at inputs AND
// outputs (two O/E-E/O pairs per port per stage), options 2 and 3 one.
func oeoPerStage(option int) int {
	if option == 1 {
		return 2
	}
	return 1
}

// runFig2 scores the three placements on the axes the paper uses —
// OEO conversion count, request/grant cable exposure, and simulated
// latency for options 1 and 3 (option 2's defining flaw is structural:
// its scheduler protocol rides a long out-of-band cable).
func runFig2(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "fig2", Title: "Buffer placement options (Fig. 2)"}

	const stages = 3
	tb := stats.NewTable("Placement cost for a 3-stage 2048-port fat tree", "option")
	oeo := tb.AddSeries("oeo-pairs-per-port-path")
	cable := tb.AddSeries("request-grant-on-long-cable")
	for opt := 1; opt <= 3; opt++ {
		oeo.Add(float64(opt), float64(oeoPerStage(opt)*stages))
		// Option 2 places buffers at the outputs, so the request/grant
		// protocol to the next stage's scheduler crosses the long cable.
		exposed := 0.0
		if opt == 2 {
			exposed = 1
		}
		cable.Add(float64(opt), exposed)
	}
	res.Tables = append(res.Tables, tb)

	res.AddFinding("option 1 OEO cost",
		"buffers at in- and outputs need twice the OEO conversions",
		fmt.Sprintf("%d vs %d pairs over %d stages", oeoPerStage(1)*stages, oeoPerStage(3)*stages, stages),
		oeoPerStage(1) == 2*oeoPerStage(3))
	res.AddFinding("option 2 scheduling exposure",
		"output buffers put the request/grant protocol on the long cable",
		"option 2 exposed, options 1/3 local",
		true)

	// Simulate options 1 and 3 on a small fat tree to compare latency.
	warm, meas := cfg.warmupMeasure(800, 4000)
	latency := map[bool]float64{}
	x, err := fabric.NewXGFT(32, 8, 0)
	if err != nil {
		return nil, err
	}
	for _, egress := range []bool{false, true} {
		_, m, err := runFabric(fabric.Config{Network: x, LinkDelaySlots: 3, EgressBuffered: egress, Shards: cfg.Par},
			traffic.Config{Kind: traffic.KindUniform, Load: 0.6, Seed: cfg.seed()}, warm, meas)
		if err != nil {
			return nil, err
		}
		latency[egress] = float64(m.LatencySlots.Mean())
	}
	simTB := stats.NewTable("Simulated mean latency, 32-host fat tree at 0.6 load", "option")
	s := simTB.AddSeries("mean-latency")
	s.Add(1, latency[true])
	s.Add(3, latency[false])
	res.Tables = append(res.Tables, simTB)

	res.AddFinding("option 3 latency",
		"input-only buffers avoid the extra egress queueing stage",
		fmt.Sprintf("option 3: %.2f slots, option 1: %.2f slots", latency[false], latency[true]),
		latency[false] <= latency[true])
	res.AddFinding("selected placement",
		"the paper selects option 3 (input buffers per stage)",
		"option 3: fewest OEOs, local request/grant, lowest latency",
		true)
	return res, nil
}
