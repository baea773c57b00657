package sched

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// newBenchBoard returns a board with n/2 randomly chosen VOQs of every
// input loaded, so each tick measures steady-state arbitration work,
// not drain-to-idle.
func newBenchBoard(n, r int, seed uint64) *MatrixBoard {
	b := NewMatrixBoard(n, r)
	rng := sim.NewRNG(seed)
	for in := 0; in < n; in++ {
		for k := 0; k < n/2; k++ {
			b.Add(in, rng.Intn(n), 2)
		}
	}
	return b
}

// executeSaturated retires the granted cells and tops each granted VOQ
// back up, keeping the board saturated across benchmark iterations.
func executeSaturated(b *MatrixBoard, m Matching) {
	for in, out := range m.Out {
		if out < 0 {
			continue
		}
		b.Take(in, out)
		if b.Demand(in, out) < 2 {
			b.Add(in, out, 2)
		}
	}
}

func benchScheduler(b *testing.B, mk func(n int) Scheduler) {
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			bd := newBenchBoard(n, 2, 7)
			s := mk(n)
			m := NewMatching(n)
			// Warm the pipeline and scratch before measuring.
			for slot := uint64(0); slot < 8; slot++ {
				s.TickInto(slot, bd, &m)
				executeSaturated(bd, m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.TickInto(uint64(i)+8, bd, &m)
				executeSaturated(bd, m)
			}
		})
	}
}

func BenchmarkISLIPTick(b *testing.B) {
	benchScheduler(b, func(n int) Scheduler { return NewISLIP(n, 0) })
}

func BenchmarkFLPPRTick(b *testing.B) {
	benchScheduler(b, func(n int) Scheduler { return NewFLPPR(n, 0) })
}

func BenchmarkPipelinedISLIPTick(b *testing.B) {
	benchScheduler(b, func(n int) Scheduler { return NewPipelinedISLIP(n, 0) })
}

func BenchmarkPIMTick(b *testing.B) {
	benchScheduler(b, func(n int) Scheduler { return NewPIM(n, 0, 11) })
}

func BenchmarkLQFTick(b *testing.B) {
	benchScheduler(b, func(n int) Scheduler { return NewLQF(n) })
}
