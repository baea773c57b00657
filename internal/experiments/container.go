package experiments

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// runContainer reproduces the paper's dismissal of burst (envelope /
// container) switching for HPC: relaxing the scheduler by aggregating B
// cells per arbitration pushes even the unloaded latency to the
// container aggregation time, while FLPPR schedules individual 51.2 ns
// cells — "the first solution for a 64-port opto-electronic packet
// switch ... without using container switching" (SVI.B).
func runContainer(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "container", Title: "Container switching vs per-cell scheduling (SII, SVI.D)"}
	warm, meas := cfg.warmupMeasure(2000, 20000)
	const n = 16

	tb := stats.NewTable("Unloaded (5% load) latency vs container size, 16 ports", "container_cells")
	lat := tb.AddSeries("container-switch")
	osm := tb.AddSeries("osmosis-flppr")

	// OSMOSIS per-cell baseline.
	rs, err := crossbar.Sweep(crossbar.Config{N: n, Receivers: 2}, []float64{0.05}, cfg.seed(), warm/4, meas/4)
	if err != nil {
		return nil, err
	}
	osmosisLat := rs[0].MeanSlots

	for _, b := range []int{4, 8, 16, 32} {
		cs := sched.NewContainerSwitch(n, b)
		var total float64
		var count int
		cs.Sink = func(_ *packet.Cell, l uint64) {
			total += float64(l)
			count++
		}
		rng := sim.NewRNG(cfg.seed())
		alloc := packet.NewAllocator()
		arrivals := make([]*packet.Cell, n)
		for s := uint64(0); s < warm+10*meas; s++ {
			for i := range arrivals {
				arrivals[i] = nil
				if rng.Bernoulli(0.05) {
					arrivals[i] = alloc.New(i, rng.Intn(n), packet.Data, 0)
				}
			}
			cs.Step(arrivals)
		}
		if count == 0 {
			return nil, fmt.Errorf("container B=%d delivered nothing", b)
		}
		mean := total / float64(count)
		lat.Add(float64(b), mean)
		osm.Add(float64(b), osmosisLat)
	}
	res.Tables = append(res.Tables, tb)

	l8 := lat.YAt(8)
	res.AddFinding("container latency scale",
		"latencies on the order of the packet burst (aggregation) time for unloaded switches",
		fmt.Sprintf("B=8 containers: %.0f slots unloaded vs burst fill time %d", l8, 8*n),
		l8 > float64(8*n)/2)
	res.AddFinding("OSMOSIS advantage",
		"per-cell FLPPR scheduling keeps unloaded latency at ~1 cell",
		fmt.Sprintf("%.2f slots vs %.0f slots for B=8 containers (%.0fx)", osmosisLat, l8, l8/osmosisLat),
		osmosisLat < 2 && l8/osmosisLat > 20)
	res.AddFinding("latency grows with container size",
		"bigger containers relax scheduling further but cost latency linearly",
		fmt.Sprintf("B=4: %.0f, B=32: %.0f slots", lat.YAt(4), lat.YAt(32)),
		lat.YAt(32) > 2*lat.YAt(4))
	return res, nil
}
