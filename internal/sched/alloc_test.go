package sched

// Allocation regression tests: the steady-state TickInto of every
// scheduler must perform zero heap allocations. These are the measured
// half of the //osmosis:hotpath contract (the osmosislint hotpath
// analyzer is the static half); a regression in either fails the build.

import (
	"fmt"
	"testing"
)

func TestTickIntoStaysAllocationFree(t *testing.T) {
	mks := []struct {
		name string
		mk   func(n int) Scheduler
	}{
		{"islip", func(n int) Scheduler { return NewISLIP(n, 0) }},
		{"flppr", func(n int) Scheduler { return NewFLPPR(n, 0) }},
		{"pipelined", func(n int) Scheduler { return NewPipelinedISLIP(n, 0) }},
		{"pim", func(n int) Scheduler { return NewPIM(n, 0, 13) }},
		{"lqf", func(n int) Scheduler { return NewLQF(n) }},
	}
	for _, n := range []int{16, 64, 100} {
		for _, tc := range mks {
			t.Run(fmt.Sprintf("%s/n=%d/bitboard=true", tc.name, n), func(t *testing.T) {
				bd := newBenchBoard(n, 2, 21)
				s := tc.mk(n)
				m := NewMatching(n)
				slot := uint64(0)
				tick := func() {
					s.TickInto(slot, bd, &m)
					executeSaturated(bd, m)
					slot++
				}
				// Warm until retained scratch reaches steady caps.
				for i := 0; i < 64; i++ {
					tick()
				}
				if avg := testing.AllocsPerRun(100, tick); avg != 0 {
					t.Fatalf("steady-state TickInto allocates %.1f allocs/op, want 0", avg)
				}
			})
		}
	}
}

// TestResetStaysAllocationFree pins the Reset bugfix: pointer and
// pipeline state must be zeroed in place, never reallocated, so a Reset
// can never detach the arbiter from scratch an alias still points at.
func TestResetStaysAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    resetter
	}{
		{"islip", NewISLIP(64, 0)},
		{"flppr", NewFLPPR(64, 0)},
		{"pipelined", NewPipelinedISLIP(64, 0)},
		{"pim", NewPIM(64, 0, 5)},
		{"lqf", NewLQF(64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bd := newBenchBoard(64, 2, 3)
			m := NewMatching(64)
			for i := 0; i < 8; i++ {
				tc.s.TickInto(uint64(i), bd, &m)
				executeSaturated(bd, m)
			}
			limit := 0.0
			if tc.name == "pim" {
				limit = 1 // NewRNG reseeds one small state object
			}
			if avg := testing.AllocsPerRun(50, tc.s.Reset); avg > limit {
				t.Fatalf("Reset allocates %.1f allocs/op, want <= %.0f", avg, limit)
			}
		})
	}
}

// TestISLIPResetZeroesInPlace pins the pointer-slice identity across
// Reset: the fix for the reallocation bug where a Reset made the
// arbiter's live scratch diverge from any captured alias.
func TestISLIPResetZeroesInPlace(t *testing.T) {
	s := NewISLIP(8, 0)
	bd := newBenchBoard(8, 1, 9)
	m := NewMatching(8)
	for i := 0; i < 4; i++ {
		s.TickInto(uint64(i), bd, &m)
	}
	gp, ap := &s.grantPtr[0], &s.acceptPtr[0]
	s.Reset()
	if gp != &s.grantPtr[0] || ap != &s.acceptPtr[0] {
		t.Fatal("Reset reallocated the pointer slices instead of zeroing in place")
	}
	for i := range s.grantPtr {
		if s.grantPtr[i] != 0 || s.acceptPtr[i] != 0 {
			t.Fatalf("Reset left pointer state at index %d: grant=%d accept=%d",
				i, s.grantPtr[i], s.acceptPtr[i])
		}
	}
}
