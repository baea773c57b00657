package sched

import (
	"math"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestBvNUnloadedLatency reproduces the §VI.D dismissal: an unloaded
// N-port load-balanced Birkhoff-von Neumann switch has a mean latency of
// about N/2 slots, because a cell parked at a random intermediate port
// waits for the round-robin connection to its output.
func TestBvNUnloadedLatency(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		b := NewBvN(n)
		var total float64
		var count int
		b.Sink = func(_ *packet.Cell, lat uint64) {
			total += float64(lat)
			count++
		}
		rng := sim.NewRNG(1)
		alloc := packet.NewAllocator()
		arrivals := make([]*packet.Cell, n)
		for slot := 0; slot < 6000; slot++ {
			for i := range arrivals {
				arrivals[i] = nil
				if rng.Bernoulli(0.02) { // nearly unloaded
					dst := rng.Intn(n)
					arrivals[i] = alloc.New(i, dst, packet.Data, 0)
				}
			}
			b.Step(arrivals)
		}
		if count == 0 {
			t.Fatalf("n=%d: no deliveries", n)
		}
		mean := total / float64(count)
		want := float64(n) / 2
		if math.Abs(mean-want)/want > 0.25 {
			t.Errorf("n=%d: unloaded mean latency %.2f slots, want ~N/2 = %.1f", n, mean, want)
		}
	}
}

// TestBvNReordersFlows verifies the second §VI.D objection: spraying a
// flow over intermediate ports delivers it out of order.
func TestBvNReordersFlows(t *testing.T) {
	const n = 16
	b := NewBvN(n)
	order := packet.NewOrderCheckerFor(0, n)
	b.Sink = func(c *packet.Cell, _ uint64) { order.Deliver(c) }
	alloc := packet.NewAllocator()
	arrivals := make([]*packet.Cell, n)
	// One continuous flow 0 -> 5 at full rate.
	for slot := 0; slot < 4000; slot++ {
		for i := range arrivals {
			arrivals[i] = nil
		}
		arrivals[0] = alloc.New(0, 5, packet.Data, 0)
		b.Step(arrivals)
	}
	if order.Violations() == 0 {
		t.Error("BvN delivered a sprayed flow fully in order; the paper's objection should reproduce")
	}
}

// TestBvNThroughput checks the architecture's merit: it sustains full
// throughput under uniform saturation with no central scheduler at all.
func TestBvNThroughput(t *testing.T) {
	const n = 16
	b := NewBvN(n)
	delivered := 0
	b.Sink = func(*packet.Cell, uint64) { delivered++ }
	rng := sim.NewRNG(2)
	alloc := packet.NewAllocator()
	arrivals := make([]*packet.Cell, n)
	const slots = 4000
	for slot := 0; slot < slots; slot++ {
		for i := range arrivals {
			dst := rng.Intn(n)
			arrivals[i] = alloc.New(i, dst, packet.Data, 0)
		}
		b.Step(arrivals)
	}
	thr := float64(delivered) / float64(slots) / float64(n)
	if thr < 0.9 {
		t.Errorf("BvN uniform saturation throughput %.3f, want ~1 (scalability is its merit)", thr)
	}
	// At exactly critical load the intermediate queues random-walk; they
	// must stay a small fraction of the injected volume.
	if b.Buffered() > slots*n/10 {
		t.Errorf("intermediate buffers grew pathologically: %d of %d injected", b.Buffered(), slots*n)
	}
}

// TestBvNConservation: every injected cell is eventually delivered.
func TestBvNConservation(t *testing.T) {
	const n = 8
	b := NewBvN(n)
	delivered := 0
	b.Sink = func(*packet.Cell, uint64) { delivered++ }
	alloc := packet.NewAllocator()
	arrivals := make([]*packet.Cell, n)
	injected := 0
	rng := sim.NewRNG(3)
	for slot := 0; slot < 500; slot++ {
		for i := range arrivals {
			arrivals[i] = nil
			if rng.Bernoulli(0.5) {
				arrivals[i] = alloc.New(i, rng.Intn(n), packet.Data, 0)
				injected++
			}
		}
		b.Step(arrivals)
	}
	// Drain.
	empty := make([]*packet.Cell, n)
	for slot := 0; slot < 5*n && b.Buffered() > 0; slot++ {
		b.Step(empty)
	}
	if delivered != injected {
		t.Errorf("injected %d, delivered %d, buffered %d", injected, delivered, b.Buffered())
	}
}
