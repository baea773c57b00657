package experiments

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// runStagesSim backs the analytic §VI.C stage-count table with full
// simulations: the same 64-host machine built three ways — a 3-stage
// tree of radix-16 switches (the OSMOSIS shape), a 5-stage tree of
// radix-8 switches (the high-end electronic shape), and a 9-stage tree
// of radix-4 switches (the commodity shape) — under identical uniform
// load and cable delays. Every added stage pays store-and-forward,
// arbitration, and cable latency; fewer stages win.
func runStagesSim(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "stages-sim", Title: "Simulated latency vs stage count (SVI.C)"}
	warm, meas := cfg.warmupMeasure(800, 4000)

	type shape struct {
		name   string
		radix  int
		levels int
	}
	shapes := []shape{
		{"3-stage-radix16", 16, 2},
		{"5-stage-radix8", 8, 3},
		{"9-stage-radix4", 4, 5},
	}

	tb := stats.NewTable("64 hosts, uniform 0.4 load, 2-slot cables", "stages")
	lat := tb.AddSeries("mean-latency-slots")
	p99 := tb.AddSeries("p99-latency-slots")
	hops := tb.AddSeries("max-hops")

	results := map[string]float64{}
	for _, s := range shapes {
		x, err := fabric.NewXGFT(64, s.radix, s.levels)
		if err != nil {
			return nil, err
		}
		_, m, err := runFabric(fabric.Config{Network: x, LinkDelaySlots: 2, Shards: cfg.Par},
			traffic.Config{Kind: traffic.KindUniform, Load: 0.4, Seed: cfg.seed()}, warm, meas)
		if err != nil {
			return nil, err
		}
		if m.OrderViolations != 0 || m.Dropped != 0 {
			res.AddFinding("integrity "+s.name, "lossless, ordered",
				fmt.Sprintf("violations=%d drops=%d", m.OrderViolations, m.Dropped), false)
		}
		stages := float64(x.StageCount())
		lat.Add(stages, float64(m.LatencySlots.Mean()))
		p99.Add(stages, float64(m.LatencySlots.P99()))
		maxHop := 0
		//lint:ignore determinism max over keys is order-independent
		for h := range m.HopHistogram {
			if h > maxHop {
				maxHop = h
			}
		}
		hops.Add(stages, float64(maxHop))
		results[s.name] = float64(m.LatencySlots.Mean())
	}
	res.Tables = append(res.Tables, tb)

	res.AddFinding("each stage contributes latency",
		"each stage contributes to latency and power consumption (SVI.C)",
		fmt.Sprintf("mean latency: 3-stage %.1f, 5-stage %.1f, 9-stage %.1f slots",
			results["3-stage-radix16"], results["5-stage-radix8"], results["9-stage-radix4"]),
		results["3-stage-radix16"] < results["5-stage-radix8"] &&
			results["5-stage-radix8"] < results["9-stage-radix4"])
	res.AddFinding("high-radix optical advantage",
		"64-port optical switches need fewer stages than electronic alternatives",
		fmt.Sprintf("9-stage commodity pays %.1fx the 3-stage latency",
			results["9-stage-radix4"]/results["3-stage-radix16"]),
		results["9-stage-radix4"]/results["3-stage-radix16"] > 1.5)
	return res, nil
}

// runFabric builds a fabric from fcfg, with New's defaults of two
// receivers and FLPPR switches, and runs it under tcfg over the
// network's hosts.
func runFabric(fcfg fabric.Config, tcfg traffic.Config, warm, meas uint64) (*fabric.Fabric, *fabric.Metrics, error) {
	f, err := fabric.New(fcfg)
	if err != nil {
		return nil, nil, err
	}
	tcfg.N = fcfg.Network.Hosts
	gens, err := traffic.Build(tcfg)
	if err != nil {
		return nil, nil, err
	}
	m, err := f.Run(gens, warm, meas)
	return f, m, err
}
