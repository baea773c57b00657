package sched

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

func driveDeflect(d *Deflect, load float64, slots int, seed uint64) (offered uint64) {
	rng := sim.NewRNG(seed)
	alloc := packet.NewAllocator()
	arrivals := make([]*packet.Cell, d.n)
	for s := 0; s < slots; s++ {
		for i := range arrivals {
			arrivals[i] = nil
			if rng.Bernoulli(load) {
				arrivals[i] = alloc.New(i, rng.Intn(d.n), packet.Data, 0)
				offered++
			}
		}
		d.Step(arrivals)
	}
	return offered
}

// TestDeflectLowLoadWorks: with little contention the switch behaves
// like a bufferless crossbar — near-zero latency, no loss.
func TestDeflectLowLoadWorks(t *testing.T) {
	d := NewDeflect(16, 4, 64)
	var total float64
	var count int
	d.Sink = func(_ *packet.Cell, lat uint64) { total += float64(lat); count++ }
	driveDeflect(d, 0.05, 20000, 1)
	if count == 0 {
		t.Fatal("nothing delivered")
	}
	if mean := total / float64(count); mean > 1.5 {
		t.Errorf("light-load mean latency %.2f slots, want ~1", mean)
	}
	if d.Dropped != 0 {
		t.Errorf("drops at light load: %d", d.Dropped)
	}
}

// TestDeflectThroughputLimited reproduces the paper's criticism: under
// uniform saturation the recirculating cells steal capacity and the
// per-port throughput stays clearly below the ~0.98+ of the buffered
// VOQ architecture.
func TestDeflectThroughputLimited(t *testing.T) {
	d := NewDeflect(16, 4, 1<<20) // effectively no drop bound
	delivered := 0
	d.Sink = func(*packet.Cell, uint64) { delivered++ }
	const slots = 30000
	driveDeflect(d, 1.0, slots, 2)
	thr := float64(delivered) / float64(slots) / 16
	if thr > 0.9 {
		t.Errorf("deflection throughput %.3f suspiciously high; the architecture is contention-limited", thr)
	}
	if thr < 0.3 {
		t.Errorf("deflection throughput %.3f implausibly low", thr)
	}
	if d.Deflections == 0 {
		t.Error("saturation produced no deflections")
	}
	t.Logf("saturation throughput %.3f, %d deflections, %d recirculating",
		thr, d.Deflections, d.Recirculating())
}

// TestDeflectReordersFlows: a deflected cell falls behind its younger
// siblings — out-of-order delivery, disqualifying per Table 1.
func TestDeflectReordersFlows(t *testing.T) {
	d := NewDeflect(8, 6, 1<<20)
	order := packet.NewOrderCheckerFor(0, 8)
	d.Sink = func(c *packet.Cell, _ uint64) { order.Deliver(c) }
	alloc := packet.NewAllocator()
	arrivals := make([]*packet.Cell, 8)
	// Two inputs both blast output 3: constant contention.
	for s := 0; s < 4000; s++ {
		for i := range arrivals {
			arrivals[i] = nil
		}
		arrivals[0] = alloc.New(0, 3, packet.Data, 0)
		arrivals[1] = alloc.New(1, 3, packet.Data, 0)
		d.Step(arrivals)
	}
	if order.Violations() == 0 {
		t.Error("contention-heavy deflection delivered fully in order; the paper's objection should reproduce")
	}
}

// TestDeflectBoundedRecirculationDrops: cells that bounce too long are
// lost — the loss the HPC requirements forbid.
func TestDeflectBoundedRecirculationDrops(t *testing.T) {
	d := NewDeflect(8, 2, 3) // tight bounce bound
	driveDeflect(d, 1.0, 5000, 3)
	if d.Dropped == 0 {
		t.Error("tight recirculation bound produced no drops under saturation")
	}
}
