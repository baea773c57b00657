package experiments

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/fc"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// runFig4 stresses the scheduler-relayed remote flow control of SIV.B:
// a fat tree whose inter-stage input buffers are protected only by
// credits held at the upstream schedulers, driven with a concentrated
// hotspot overload. The paper's claims: losslessness, no interference
// with unrelated traffic, and a deterministic FC RTT enabling exact
// buffer sizing.
func runFig4(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "fig4", Title: "Flow-control loops (Figs. 3/4, SIV.B)"}
	warm, meas := cfg.warmupMeasure(0, 6000)
	if meas == 0 {
		meas = 500
	}

	const (
		hosts  = 32
		radix  = 8
		linkD  = 4
		margin = 2
	)
	loopRTT := fc.LoopRTT(linkD, 1)
	capacity := fc.BufferFor(loopRTT, margin)
	x, err := fabric.NewXGFT(hosts, radix, 0)
	if err != nil {
		return nil, err
	}

	tb := stats.NewTable("Hotspot overload, 32-host fat tree, hot port 0", "hot_fraction")
	drops := tb.AddSeries("drops")
	ooo := tb.AddSeries("order_violations")
	maxDepth := tb.AddSeries("max_input_buffer_cells")
	coldLatency := tb.AddSeries("cold_flow_latency_slots")

	var worstDepth int
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		f, m, err := runFabric(fabric.Config{Network: x, LinkDelaySlots: linkD, InputCapacity: capacity, Shards: cfg.Par},
			traffic.Config{Kind: traffic.KindHotspot, Load: 0.85, HotPort: 0, HotFraction: frac, Seed: cfg.seed()}, warm, meas)
		if err != nil {
			return nil, err
		}
		if _, err := f.Drain(uint64(400000)); err != nil {
			return nil, err
		}
		drops.Add(frac, float64(m.Dropped))
		ooo.Add(frac, float64(m.OrderViolations))
		maxDepth.Add(frac, float64(m.MaxInterInputDepth))
		coldLatency.Add(frac, float64(m.LatencySlots.Mean()))
		if m.MaxInterInputDepth > worstDepth {
			worstDepth = m.MaxInterInputDepth
		}
		if m.Dropped != 0 {
			res.AddFinding("losslessness", "no loss from buffer overflow",
				fmt.Sprintf("%d drops at fraction %v", m.Dropped, frac), false)
		}
		if m.OrderViolations != 0 {
			res.AddFinding("ordering", "order maintained under overload",
				fmt.Sprintf("%d violations at fraction %v", m.OrderViolations, frac), false)
		}
	}
	res.Tables = append(res.Tables, tb)

	res.AddFinding("losslessness under overload",
		"FC prevents buffer-overflow loss entirely",
		"0 drops across hotspot fractions 0.2-0.8 at 0.85 load",
		drops.YAt(0.2) == 0 && drops.YAt(0.5) == 0 && drops.YAt(0.8) == 0)
	res.AddFinding("deterministic RTT buffer sizing",
		"loop RTT is deterministic, so capacity = RTT + margin suffices",
		fmt.Sprintf("loop RTT %d slots, capacity %d, worst observed depth %d", loopRTT, capacity, worstDepth),
		worstDepth <= capacity)
	res.AddFinding("ordering under overload",
		"packet order maintained (Table 1) while FC throttles",
		"0 violations across the sweep",
		ooo.YAt(0.2) == 0 && ooo.YAt(0.5) == 0 && ooo.YAt(0.8) == 0)
	return res, nil
}
