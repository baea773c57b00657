package experiments

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// runDeflect reproduces the paper's assessment of deflection routing
// (ref [10]): keeping contention resolution all-optical scales to high
// port counts but "has limited throughput per port", and (implicitly,
// via Table 1) reorders flows — both fixed by OSMOSIS's electronic VOQs
// and central scheduler at the cost of OEO conversions.
func runDeflect(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "deflect", Title: "Deflection routing vs buffered VOQ (SII)"}
	warm, meas := cfg.warmupMeasure(2000, 20000)
	const n = 16

	tb := stats.NewTable("Per-port throughput vs offered load, 16 ports", "load")
	defl := tb.AddSeries("deflection")
	voqS := tb.AddSeries("osmosis-voq")

	var reorders uint64
	for _, load := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		// Deflection switch.
		d := sched.NewDeflect(n, 4)
		order := packet.NewOrderCheckerFor(0, n)
		delivered := 0
		d.Sink = func(c *packet.Cell, _ uint64) {
			delivered++
			order.Deliver(c)
		}
		rng := sim.NewRNG(cfg.seed())
		alloc := packet.NewAllocator()
		arrivals := make([]*packet.Cell, n)
		slots := warm + meas
		for s := uint64(0); s < slots; s++ {
			for i := range arrivals {
				arrivals[i] = nil
				if rng.Bernoulli(load) {
					arrivals[i] = alloc.New(i, rng.Intn(n), packet.Data, 0)
				}
			}
			d.Step(arrivals)
		}
		defl.Add(load, float64(delivered)/float64(slots)/n)
		reorders += order.Violations()

		// Buffered VOQ reference.
		rs, err := crossbar.Sweep(crossbar.Config{N: n, Receivers: 2}, []float64{load}, cfg.seed(), warm/4, meas/4)
		if err != nil {
			return nil, err
		}
		voqS.Add(load, rs[0].Throughput)
	}
	res.Tables = append(res.Tables, tb)

	res.AddFinding("limited throughput per port",
		"the architecture can scale to very high port counts but has limited throughput per port (SII)",
		fmt.Sprintf("at full offered load: deflection %.2f vs buffered VOQ %.2f cells/slot/port",
			defl.YAt(1.0), voqS.YAt(1.0)),
		defl.YAt(1.0) < 0.8 && voqS.YAt(1.0) > 0.95)
	res.AddFinding("deflection reorders flows",
		"keeping packets optical under contention breaks per-flow order (Table 1)",
		fmt.Sprintf("%d order violations across the load sweep (VOQ switch: 0)", reorders),
		reorders > 0)
	res.AddFinding("light-load parity",
		"without contention the bufferless path is as fast as any",
		fmt.Sprintf("deflection carries %.3f at 0.2 offered", defl.YAt(0.2)),
		defl.YAt(0.2) > 0.19)
	return res, nil
}
