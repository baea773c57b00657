package sched

// Golden equivalence suite for the bitset arbiter core: every rewritten
// scheduler must produce bit-identical matchings — and leave bit-
// identical committed state on the board — to the retained pre-rewrite
// reference implementation (reference_test.go), tick by tick, over a
// seeded random demand evolution. Covered: N in {4, 8, 64, 100, 256}
// (including the non-power-of-two and the multi-word >64 cases), single
// and dual receivers, and a fault-degraded output. The rewritten
// schedulers read the board's demand bit rows; the reference walks
// Demand pair by pair, and each tick the bit views are checked against
// Demand directly.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// arrive adds one seeded-random burst of demand. Both boards in an
// equivalence run receive identical bursts because they share the rng
// call sequence.
func arrive(b *MatrixBoard, rng *sim.RNG) {
	for k := 0; k < b.n; k++ {
		if rng.Bernoulli(0.6) {
			in := rng.Intn(b.n)
			out := rng.Intn(b.n)
			b.Add(in, out, 1+rng.Intn(3))
		}
	}
}

func matchingsEqual(a, b Matching) bool {
	if len(a.Out) != len(b.Out) {
		return false
	}
	for i := range a.Out {
		if a.Out[i] != b.Out[i] {
			return false
		}
	}
	return true
}

func boardsEqual(a, b *MatrixBoard) bool {
	return slices.Equal(a.queued, b.queued) && slices.Equal(a.committed, b.committed)
}

// bitsMatchDemand reports whether b's demand bit rows and columns,
// read through the Board methods, hold exactly the pairs with
// Demand(in, out) > 0.
func bitsMatchDemand(b *MatrixBoard) bool {
	row := make([]uint64, b.words)
	col := make([]uint64, b.words)
	hasBit := func(w []uint64, j int) bool { return w[j>>6]>>(uint(j)&63)&1 != 0 }
	for i := 0; i < b.n; i++ {
		b.DemandRowBits(i, row)
		b.DemandColBits(i, col)
		for j := 0; j < b.n; j++ {
			if hasBit(row, j) != (b.Demand(i, j) > 0) || hasBit(col, j) != (b.Demand(j, i) > 0) {
				return false
			}
		}
	}
	return true
}

// runEquivalence drives got (against gb) and want (against an
// identically seeded wb) for ticks cycles and fails on the first
// divergence in matching or board state.
func runEquivalence(t *testing.T, ticks int, seed uint64,
	gb *MatrixBoard, got Scheduler, wb *MatrixBoard, want refScheduler, degrade bool) {
	t.Helper()
	rngGot := sim.NewRNG(seed)
	rngWant := sim.NewRNG(seed)
	if degrade && gb.r > 1 {
		// One output lost a receiver to a fault before the run.
		gb.recv[1] = gb.r - 1
		wb.recv[1] = wb.r - 1
	}
	var m Matching
	for tick := 0; tick < ticks; tick++ {
		arrive(gb, rngGot)
		arrive(wb, rngWant)
		got.TickInto(uint64(tick), gb, &m)
		ref := want.Tick(uint64(tick), wb)
		if !matchingsEqual(m, ref) {
			t.Fatalf("tick %d: matching diverged\n got %v\nwant %v", tick, m.Out, ref.Out)
		}
		gb.Execute(m)
		wb.Execute(ref)
		if !boardsEqual(gb, wb) {
			t.Fatalf("tick %d: board state diverged after execute", tick)
		}
		if !bitsMatchDemand(gb) {
			t.Fatalf("tick %d: demand bits disagree with Demand", tick)
		}
	}
}

// schedulerPairs enumerates (rewritten, reference) constructions.
func schedulerPairs(n int) []struct {
	name string
	got  func() Scheduler
	want func() refScheduler
} {
	return []struct {
		name string
		got  func() Scheduler
		want func() refScheduler
	}{
		{"islip", func() Scheduler { return NewISLIP(n, 0) }, func() refScheduler { return newRefISLIP(n, 0) }},
		{"islip-1iter", func() Scheduler { return NewISLIP(n, 1) }, func() refScheduler { return newRefISLIP(n, 1) }},
		{"flppr", func() Scheduler { return NewFLPPR(n, 0) }, func() refScheduler { return newRefFLPPR(n, 0) }},
		{"pipelined", func() Scheduler { return NewPipelinedISLIP(n, 0) }, func() refScheduler { return newRefPipelinedISLIP(n, 0) }},
		{"pim", func() Scheduler { return NewPIM(n, 0, 99) }, func() refScheduler { return newRefPIM(n, 0, 99) }},
		{"lqf", func() Scheduler { return NewLQF(n) }, func() refScheduler { return newRefLQF(n) }},
	}
}

// TestBitsetSchedulersMatchReference is the golden test of the rewrite:
// bit-identical matchings against the retained pre-rewrite schedulers.
func TestBitsetSchedulersMatchReference(t *testing.T) {
	sizes := []int{4, 8, 64, 100, 256}
	for _, n := range sizes {
		ticks := 300
		if n >= 100 {
			ticks = 60 // the O(N²·iters) reference dominates runtime
		}
		for _, r := range []int{1, 2} {
			for _, degrade := range []bool{false, true} {
				if degrade && r == 1 {
					continue
				}
				for _, p := range schedulerPairs(n) {
					name := fmt.Sprintf("%s/n=%d/r=%d/degrade=%v", p.name, n, r, degrade)
					t.Run(name, func(t *testing.T) {
						gb := NewMatrixBoard(n, r)
						wb := NewMatrixBoard(n, r)
						runEquivalence(t, ticks, uint64(n*10+r), gb, p.got(), wb, p.want(), degrade)
					})
				}
			}
		}
	}
}

// TestBitBoardFastPathMatchesReference re-runs the golden comparison on
// a second seeded demand evolution per shape, so the bit-row fast path
// and the reference's Demand walk are held equal on more than one
// world.
func TestBitBoardFastPathMatchesReference(t *testing.T) {
	for _, n := range []int{8, 64, 100} {
		for _, r := range []int{1, 2} {
			for _, p := range schedulerPairs(n) {
				name := fmt.Sprintf("%s/n=%d/r=%d", p.name, n, r)
				t.Run(name, func(t *testing.T) {
					gb := NewMatrixBoard(n, r)
					wb := NewMatrixBoard(n, r)
					runEquivalence(t, 120, uint64(n*7+r), gb, p.got(), wb, p.want(), false)
				})
			}
		}
	}
}
