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

// maskedBoard hides the outputs whose mask bit is clear from every
// view of the demand, the way a fabric node's board hides outputs that
// lack downstream credit.
type maskedBoard struct {
	*MatrixBoard
	mask []uint64 // bit out set iff out may be granted
}

func (b maskedBoard) open(out int) bool { return b.mask[out>>6]>>(uint(out)&63)&1 != 0 }

func (b maskedBoard) Demand(in, out int) int {
	if !b.open(out) {
		return 0
	}
	return b.MatrixBoard.Demand(in, out)
}

func (b maskedBoard) DemandRowBits(in int, row []uint64) {
	b.MatrixBoard.DemandRowBits(in, row)
	for w := range row {
		row[w] &= b.mask[w]
	}
}

func (b maskedBoard) DemandColBits(out int, col []uint64) {
	if !b.open(out) {
		clearRow(col)
		return
	}
	b.MatrixBoard.DemandColBits(out, col)
}

// drawMask opens each of the n outputs with probability 0.8.
func drawMask(mask []uint64, n int, rng *sim.RNG) {
	clearRow(mask)
	for out := 0; out < n; out++ {
		if rng.Bernoulli(0.8) {
			setBit(mask, out)
		}
	}
}

// runEquivalence drives got (against gb) and want (against an
// identically seeded wb) for ticks cycles and fails on the first
// divergence in matching or board state. With masked set, both
// schedulers see their board through a maskedBoard whose mask is
// redrawn every tick.
func runEquivalence(t *testing.T, ticks int, seed uint64,
	gb *MatrixBoard, got Scheduler, wb *MatrixBoard, want refScheduler, masked bool) {
	t.Helper()
	rngGot := sim.NewRNG(seed)
	rngWant := sim.NewRNG(seed)
	rngMask := sim.NewRNG(seed + 1)
	var gv, wv Board = gb, wb
	var mask []uint64
	if masked {
		mask = make([]uint64, gb.words)
		gv, wv = maskedBoard{gb, mask}, maskedBoard{wb, mask}
	}
	var m Matching
	for tick := 0; tick < ticks; tick++ {
		arrive(gb, rngGot)
		arrive(wb, rngWant)
		if masked {
			drawMask(mask, gb.n, rngMask)
		}
		got.TickInto(uint64(tick), gv, &m)
		ref := want.Tick(uint64(tick), wv)
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
						if degrade {
							// One output lost a receiver to a fault before the run.
							gb.recv[1]--
							wb.recv[1]--
						}
						runEquivalence(t, ticks, uint64(n*10+r), gb, p.got(), wb, p.want(), false)
					})
				}
			}
		}
	}
}

// TestBitBoardFastPathMatchesReference re-runs the golden comparison on
// a second seeded demand evolution per shape, so the bit-row fast path
// and the reference's Demand walk are held equal on more than one
// world. The mixed worlds, at one and two row words, give output out
// out%4 receivers (0 to 3) and mask a fifth of the outputs afresh every
// tick, so the grant phase's want row, the per-tick receiver snapshot
// and FLPPR's in-flight partial matchings all meet outputs that cannot
// grant.
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
	for _, n := range []int{64, 100} {
		for _, p := range schedulerPairs(n) {
			t.Run(fmt.Sprintf("%s/n=%d/r=mixed/masked", p.name, n), func(t *testing.T) {
				gb := NewMatrixBoard(n, 1)
				wb := NewMatrixBoard(n, 1)
				for out := 0; out < n; out++ {
					gb.recv[out], wb.recv[out] = out%4, out%4
				}
				runEquivalence(t, 120, uint64(n*13), gb, p.got(), wb, p.want(), true)
			})
		}
	}
}

// TestIteratePartialMatchingsMatchReference drives iterate directly
// against refIterate from random pre-populated partial matchings, the
// state FLPPR's in-flight matchings are in, with random pointers,
// receiver counts of 0 to 3 and masked outputs, at one and two row
// words. Besides the matching, the pointers and the count, it pins the
// newly-matched list and the matchState iterate keeps, against a
// re-derivation from the matching.
func TestIteratePartialMatchingsMatchReference(t *testing.T) {
	for _, n := range []int{64, 100} {
		for _, iters := range []int{1, 3} {
			rng := sim.NewRNG(uint64(n*10 + iters))
			sc := newArbScratch(n)
			for trial := 0; trial < 200; trial++ {
				b := NewMatrixBoard(n, 1)
				for out := range b.recv {
					b.recv[out] = rng.Intn(4)
				}
				arrive(b, rng)
				arrive(b, rng)
				mask := make([]uint64, b.words)
				drawMask(mask, n, rng)
				view := maskedBoard{b, mask}
				m := NewMatching(n)
				load := make([]int, n)
				for in := range m.Out {
					if out := rng.Intn(n); rng.Bernoulli(0.4) && load[out] < b.recv[out] {
						m.Out[in] = out
						load[out]++
					}
				}
				gp, ap := make([]int, n), make([]int, n)
				for i := range gp {
					gp[i], ap[i] = rng.Intn(n), rng.Intn(n)
				}
				before := slices.Clone(m.Out)
				ref := Matching{Out: slices.Clone(m.Out)}
				refG, refA := slices.Clone(gp), slices.Clone(ap)
				want := refIterate(view, &ref, refG, refA, iters, nil)

				st := newMatchState(n)
				st.derive(m.Out)
				sc.snapshot(view)
				got := sc.iterate(&m, &st, gp, ap, iters)
				if got != want || !slices.Equal(m.Out, ref.Out) || !slices.Equal(gp, refG) || !slices.Equal(ap, refA) {
					t.Fatalf("n=%d iters=%d trial %d: iterate diverged from the reference", n, iters, trial)
				}
				var fresh []int
				for in, out := range m.Out {
					if out >= 0 && before[in] < 0 {
						fresh = append(fresh, in)
					}
				}
				listed := slices.Clone(sc.matched[:got])
				if iters > 1 {
					slices.Sort(listed)
				}
				if !slices.Equal(listed, fresh) {
					t.Fatalf("n=%d iters=%d trial %d: matched list %v, newly matched %v", n, iters, trial, sc.matched[:got], fresh)
				}
				re := newMatchState(n)
				re.derive(m.Out)
				if !slices.Equal(st.unmatched, re.unmatched) || !slices.Equal(st.outLoad, re.outLoad) {
					t.Fatalf("n=%d iters=%d trial %d: kept matchState drifted from the matching", n, iters, trial)
				}
			}
		}
	}
}
