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
