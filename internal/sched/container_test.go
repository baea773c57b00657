package sched

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// containerRun drives a container switch at a light uniform load and
// reports the mean delivery latency in cell slots.
func containerRun(t *testing.T, n, b int, load float64, slots int) float64 {
	t.Helper()
	cs := NewContainerSwitch(n, b)
	var total float64
	var count int
	cs.Sink = func(_ *packet.Cell, lat uint64) {
		total += float64(lat)
		count++
	}
	rng := sim.NewRNG(1)
	alloc := packet.NewAllocator()
	arrivals := make([]*packet.Cell, n)
	for s := 0; s < slots; s++ {
		for i := range arrivals {
			arrivals[i] = nil
			if rng.Bernoulli(load) {
				arrivals[i] = alloc.New(i, rng.Intn(n), packet.Data, 0)
			}
		}
		cs.Step(arrivals)
	}
	if count == 0 {
		t.Fatal("no deliveries")
	}
	return total / float64(count)
}

// TestContainerUnloadedLatencyScalesWithB reproduces the §VI.D
// objection: unloaded latency is on the order of the container
// aggregation time (here the fill timeout N*B), which dwarfs a cell
// time — and it grows with the container size.
func TestContainerUnloadedLatencyScalesWithB(t *testing.T) {
	const n = 16
	lat8 := containerRun(t, n, 8, 0.02, 60000)    // timeout 128 slots
	lat32 := containerRun(t, n, 32, 0.02, 200000) // timeout 512 slots
	if lat8 < 8*16/2 || lat8 > 2*8*16 {
		t.Errorf("B=8 unloaded latency %.1f slots, want on the order of the 128-slot timeout", lat8)
	}
	if lat32 < 32*16/2 || lat32 > 2*32*16 {
		t.Errorf("B=32 unloaded latency %.1f slots, want on the order of the 512-slot timeout", lat32)
	}
	if lat32 < 2*lat8 {
		t.Errorf("latency should scale with container size: B=8 %.1f vs B=32 %.1f", lat8, lat32)
	}
}

// TestContainerDeliversEverything checks conservation after a drain.
func TestContainerDeliversEverything(t *testing.T) {
	const n, b = 8, 4
	cs := NewContainerSwitch(n, b)
	delivered := 0
	cs.Sink = func(*packet.Cell, uint64) { delivered++ }
	rng := sim.NewRNG(2)
	alloc := packet.NewAllocator()
	arrivals := make([]*packet.Cell, n)
	injected := 0
	for s := 0; s < 2000; s++ {
		for i := range arrivals {
			arrivals[i] = nil
			if rng.Bernoulli(0.3) {
				arrivals[i] = alloc.New(i, rng.Intn(n), packet.Data, 0)
				injected++
			}
		}
		cs.Step(arrivals)
	}
	empty := make([]*packet.Cell, n)
	for s := 0; s < 200000 && cs.QueuedContainers()+cs.Assembling() > 0; s++ {
		cs.Step(empty)
	}
	// Flush the last transmitting epoch.
	for s := 0; s < 2*b; s++ {
		cs.Step(empty)
	}
	if delivered != injected {
		t.Errorf("injected %d delivered %d (queued %d assembling %d)",
			injected, delivered, cs.QueuedContainers(), cs.Assembling())
	}
}

// TestContainerKeepsOrderWithinFlow: container assembly is FIFO per
// (in,out), so per-flow order holds — the objection is latency, not
// ordering, for this architecture.
func TestContainerKeepsOrderWithinFlow(t *testing.T) {
	const n, b = 8, 4
	cs := NewContainerSwitch(n, b)
	order := packet.NewOrderCheckerFor(0, n)
	cs.Sink = func(c *packet.Cell, _ uint64) { order.Deliver(c) }
	alloc := packet.NewAllocator()
	arrivals := make([]*packet.Cell, n)
	for s := 0; s < 4000; s++ {
		for i := range arrivals {
			arrivals[i] = nil
		}
		arrivals[0] = alloc.New(0, 3, packet.Data, 0)
		cs.Step(arrivals)
	}
	if order.Violations() != 0 {
		t.Errorf("container switch reordered a flow: %d violations", order.Violations())
	}
}

// TestContainerThroughputUnderSaturation: the merit that made container
// switching popular — it sustains high throughput with a relaxed
// scheduler.
func TestContainerThroughputUnderSaturation(t *testing.T) {
	const n, b = 8, 8
	cs := NewContainerSwitch(n, b)
	delivered := 0
	cs.Sink = func(*packet.Cell, uint64) { delivered++ }
	rng := sim.NewRNG(3)
	alloc := packet.NewAllocator()
	arrivals := make([]*packet.Cell, n)
	const slots = 40000
	for s := 0; s < slots; s++ {
		for i := range arrivals {
			arrivals[i] = alloc.New(i, rng.Intn(n), packet.Data, 0)
		}
		cs.Step(arrivals)
	}
	thr := float64(delivered) / float64(slots) / n
	if thr < 0.55 {
		t.Errorf("container switch saturation throughput %.3f", thr)
	}
}
