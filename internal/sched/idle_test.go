package sched

// SkipIdle equivalence suite: replacing any stretch of idle TickInto
// calls (empty board, no outstanding commitments) with one SkipIdle(n)
// must leave every scheduler in a state indistinguishable from the
// always-ticked twin — same matchings and same board effects, forever
// after. This is the contract that lets the fabric's active-set tick
// loop stop arbitrating drained nodes.

import (
	"testing"

	"repro/internal/sim"
)

func boardEmpty(b *MatrixBoard) bool {
	for i := range b.queued {
		if b.queued[i] != 0 || b.committed[i] != 0 {
			return false
		}
	}
	return true
}

// TestSkipIdleMatchesIdleTicks interleaves random-length idle stretches
// with bursts of demand. One twin ticks every slot; the other defers
// idle slots and replays them with a single SkipIdle at wake-up,
// exactly like a node re-entering the shard's active set. Matchings and
// board state must stay bit-identical through every burst.
func TestSkipIdleMatchesIdleTicks(t *testing.T) {
	const n = 8
	for _, p := range schedulerPairs(n) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			ticked := p.got()
			skipped := p.got()
			skipper, ok := skipped.(IdleSkipper)
			if !ok {
				t.Fatalf("%s does not implement IdleSkipper", skipped.Name())
			}
			tb := NewMatrixBoard(n, 2)
			sb := NewMatrixBoard(n, 2)
			rngT := sim.NewRNG(99)
			rngS := sim.NewRNG(99)
			gaps := sim.NewRNG(1234)
			var mt, ms Matching
			slot := uint64(0)
			var deferred uint64
			for round := 0; round < 40; round++ {
				// Idle stretch: the ticked twin observes every slot against
				// an empty board (and must grant nothing); the skipped twin
				// only accrues the gap.
				for i, gap := uint64(0), uint64(gaps.Intn(10)); i < gap; i++ {
					ticked.TickInto(slot, tb, &mt)
					for in, out := range mt.Out {
						if out >= 0 {
							t.Fatalf("slot %d: idle tick granted %d->%d", slot, in, out)
						}
					}
					deferred++
					slot++
				}
				// Busy stretch: wake the skipped twin by replaying the gap,
				// then drive both with identical arrivals until the boards
				// drain completely — the precondition for the next gap (a
				// fabric node leaves the active set only with zero resident
				// cells, hence zero demand and zero commitments).
				arrive(tb, rngT)
				arrive(sb, rngS)
				for busy := 0; ; busy++ {
					if deferred > 0 {
						skipper.SkipIdle(deferred)
						deferred = 0
					}
					ticked.TickInto(slot, tb, &mt)
					skipped.TickInto(slot, sb, &ms)
					if !matchingsEqual(mt, ms) {
						t.Fatalf("slot %d (round %d): matching diverged after skip\n ticked  %v\n skipped %v",
							slot, round, mt.Out, ms.Out)
					}
					tb.Execute(mt)
					sb.Execute(ms)
					if !boardsEqual(tb, sb) {
						t.Fatalf("slot %d (round %d): board state diverged", slot, round)
					}
					slot++
					if boardEmpty(tb) {
						break
					}
					if busy > 10000 {
						t.Fatalf("round %d: board never drained", round)
					}
				}
			}
		})
	}
}
