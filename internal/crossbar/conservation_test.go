package crossbar

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// TestWorkConservation exercises the ref-[11] property the paper builds
// its throughput requirement on: an output may not idle while a cell
// for it waits anywhere in the switch. With every VOQ saturated toward
// every output, each output line must transmit nearly every slot.
func TestWorkConservation(t *testing.T) {
	const n = 16
	sw, err := New(Config{N: n, Receivers: 2})
	if err != nil {
		t.Fatal(err)
	}
	alloc := packet.NewAllocator()
	arrivals := make([]*packet.Cell, n)
	// Saturate: every input injects a cell every slot.
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: n, Load: 1.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const warm, meas = 300, 3000
	for slot := uint64(0); slot < warm+meas; slot++ {
		if slot == warm {
			sw.StartMeasurement(meas)
		}
		for i, g := range gens {
			arrivals[i] = nil
			if a, ok := g.Next(slot); ok {
				arrivals[i] = alloc.New(i, a.Dst, packet.Data, sw.Metrics().CycleTime*0)
			}
		}
		sw.Step(arrivals)
	}
	m := sw.Metrics()
	// Output lines busy nearly 100% of measured slots.
	util := float64(m.Delivered) / float64(meas) / n
	if util < 0.97 {
		t.Errorf("output utilization %.3f under full saturation; work conservation demands ~1", util)
	}
}

// TestOnMatchObservesEveryCycle verifies the optics hook contract: one
// call per cycle with a structurally valid matching.
func TestOnMatchObservesEveryCycle(t *testing.T) {
	const n = 8
	var calls uint64
	cfg := Config{
		N: n, Receivers: 2,
		OnMatch: func(slot uint64, m sched.Matching) {
			if slot != calls {
				t.Fatalf("OnMatch slot %d, want %d", slot, calls)
			}
			calls++
			if err := m.Validate(n, 2); err != nil {
				t.Fatalf("invalid matching surfaced: %v", err)
			}
		},
	}
	sw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: n, Load: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sw.Run(gens, 0, 500)
	if calls != 500 {
		t.Errorf("OnMatch fired %d times for 500 cycles", calls)
	}
}

// TestLatencyPercentilesOrdered: distribution sanity on a loaded run.
func TestLatencyPercentilesOrdered(t *testing.T) {
	sw, err := New(Config{N: 16, Receivers: 2})
	if err != nil {
		t.Fatal(err)
	}
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: 16, Load: 0.9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sw.Run(gens, 500, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if !(m.Latency.Min() <= m.Latency.Quantile(0.5) &&
		m.Latency.Quantile(0.5) <= m.Latency.P99() &&
		m.Latency.P99() <= m.Latency.Max()) {
		t.Errorf("percentiles disordered: min %v p50 %v p99 %v max %v",
			m.Latency.Min(), m.Latency.Quantile(0.5), m.Latency.P99(), m.Latency.Max())
	}
}
