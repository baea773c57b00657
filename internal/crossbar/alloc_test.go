package crossbar

// Allocation regression test for the engine hot path: a steady-state
// Step — VOQ push, arbitration over the demand bit rows, matching
// execution, egress drain, cell recycling — must perform zero heap
// allocations while measurement is off. Measurement mode retains
// latency samples by design (exact-quantile collection), so the
// contract is pinned on the non-measuring loop the warm-up phase and
// the benchmarks run.

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/traffic"
)

func TestStepStaysAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(n int) sched.Scheduler
		rtt  int
	}{
		{"flppr", func(n int) sched.Scheduler { return sched.NewFLPPR(n, 0) }, 0},
		{"islip", func(n int) sched.Scheduler { return sched.NewISLIP(n, 0) }, 0},
		{"islip-rtt2", func(n int) sched.Scheduler { return sched.NewISLIP(n, 0) }, 2},
		{"pipelined", func(n int) sched.Scheduler { return sched.NewPipelinedISLIP(n, 0) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 64
			sw, err := New(Config{N: n, Receivers: 2, NewScheduler: func() sched.Scheduler { return tc.mk(n) }, ControlRTTCycles: tc.rtt})
			if err != nil {
				t.Fatal(err)
			}
			gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: n, Load: 0.7, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			arrivals := make([]*packet.Cell, n)
			var slot uint64
			step := func() {
				now := sw.now()
				for i, g := range gens {
					arrivals[i] = nil
					if a, ok := g.Next(slot); ok {
						arrivals[i] = sw.alloc.New(i, a.Dst, packet.Data, now)
					}
				}
				sw.Step(arrivals)
				slot++
			}
			// Warm-up: fill the VOQ/egress fifos and the cell free list to
			// their steady-state capacities and touch every flow key once.
			for i := 0; i < 4096; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(512, step); avg != 0 {
				t.Fatalf("steady-state Step allocates %.2f allocs/op, want 0", avg)
			}
		})
	}
}

// TestAllocatorRecyclesCells pins the allocator free list: a New/Free
// cycle in steady state allocates nothing and preserves the identity
// sequence a fresh allocator would produce.
func TestAllocatorRecyclesCells(t *testing.T) {
	a := packet.NewAllocator()
	// Warm the flow-key map and the free list.
	a.Free(a.New(1, 2, packet.Data, 0))
	var c *packet.Cell
	cycle := func() {
		c = a.New(1, 2, packet.Data, 42)
		a.Free(c)
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state New/Free allocates %.2f allocs/op, want 0", avg)
	}
	// Identity must match a never-recycling allocator making the same
	// sequence of New calls.
	recycling := packet.NewAllocator()
	fresh := packet.NewAllocator()
	var got, want *packet.Cell
	for i := 0; i < 100; i++ {
		got = recycling.New(1, 2, packet.Data, 7)
		want = fresh.New(1, 2, packet.Data, 7)
		if i < 99 {
			got.Hops = 3 // dirty the cell before recycling
			recycling.Free(got)
		}
	}
	if got.ID != want.ID || got.Seq != want.Seq {
		t.Fatalf("recycled identity (id=%d seq=%d) != fresh identity (id=%d seq=%d)",
			got.ID, got.Seq, want.ID, want.Seq)
	}
	if got.Hops != 0 || got.Delivered != 0 {
		t.Fatalf("recycled cell not zeroed: %+v", got)
	}
}
