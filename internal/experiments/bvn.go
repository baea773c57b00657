package experiments

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// runBvN reproduces the §VI.D comparison: the load-balanced BvN switch
// scales without a central scheduler but pays ~N/2 slots of latency even
// unloaded and reorders flows, while OSMOSIS delivers single-cell
// unloaded latency in order.
func runBvN(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "bvn", Title: "Birkhoff-von Neumann comparison (SVI.D)"}
	warm, meas := cfg.warmupMeasure(500, 4000)

	tb := stats.NewTable("Unloaded (5% load) mean latency vs port count", "ports")
	bvnSeries := tb.AddSeries("load-balanced-bvn")
	osmosisSeries := tb.AddSeries("osmosis-flppr")
	halfN := tb.AddSeries("n-over-2")

	for _, n := range []int{16, 32, 64} {
		// BvN at light load.
		b := sched.NewBvN(n)
		var total float64
		var count int
		b.Sink = func(c *packet.Cell, lat uint64) {
			total += float64(lat)
			count++
		}
		rng := sim.NewRNG(cfg.seed())
		alloc := packet.NewAllocator()
		arrivals := make([]*packet.Cell, n)
		for slot := uint64(0); slot < warm+meas; slot++ {
			for i := range arrivals {
				arrivals[i] = nil
				if rng.Bernoulli(0.05) {
					arrivals[i] = alloc.New(i, rng.Intn(n), packet.Data, 0)
				}
			}
			b.Step(arrivals)
		}
		mean := total / float64(count)
		bvnSeries.Add(float64(n), mean)
		halfN.Add(float64(n), float64(n)/2)

		// OSMOSIS at the same load.
		sw, err := crossbar.New(crossbar.Config{N: n, Receivers: 2})
		if err != nil {
			return nil, err
		}
		rs, err := crossbar.Sweep(crossbar.Config{N: n, Receivers: 2}, []float64{0.05}, cfg.seed(), warm, meas)
		if err != nil {
			return nil, err
		}
		osmosisSeries.Add(float64(n), rs[0].MeanSlots)
		_ = sw
	}
	res.Tables = append(res.Tables, tb)

	b64 := bvnSeries.YAt(64)
	o64 := osmosisSeries.YAt(64)
	res.AddFinding("BvN unloaded latency",
		"high average switching latency of N/2 packets for an unloaded N-port switch",
		fmt.Sprintf("64 ports: %.1f slots (N/2 = 32)", b64),
		b64 > 24 && b64 < 44)
	res.AddFinding("OSMOSIS unloaded latency",
		"single-packet latency for the unloaded centrally scheduled switch",
		fmt.Sprintf("64 ports: %.2f slots", o64),
		o64 < 2)
	res.AddFinding("latency gap",
		"BvN unattractive for HPC because of the N/2 latency",
		fmt.Sprintf("%.0fx slower unloaded at 64 ports", b64/o64),
		b64/o64 > 10)
	// Dedicated reorder probe: one continuous flow sprayed over the
	// intermediate stage must reorder.
	reorder := bvnReorderProbe(16, 3000)
	res.AddFinding("out-of-order delivery",
		"BvN delivers out of order (disqualifying for Table 1)",
		fmt.Sprintf("%d reorder violations on a 3000-cell flow", reorder),
		reorder > 0)
	return res, nil
}

// bvnReorderProbe drives one full-rate flow through an n-port BvN and
// counts per-flow order violations at the sink.
func bvnReorderProbe(n int, cells int) uint64 {
	b := sched.NewBvN(n)
	order := packet.NewOrderCheckerFor(0, n)
	b.Sink = func(c *packet.Cell, _ uint64) { order.Deliver(c) }
	alloc := packet.NewAllocator()
	arrivals := make([]*packet.Cell, n)
	for slot := 0; slot < cells; slot++ {
		for i := range arrivals {
			arrivals[i] = nil
		}
		arrivals[0] = alloc.New(0, 5, packet.Data, 0)
		b.Step(arrivals)
	}
	return order.Violations()
}
