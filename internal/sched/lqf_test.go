package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLQFValidMatchingsProperty(t *testing.T) {
	f := func(seed uint64, rRaw uint8) bool {
		n := 8
		r := int(rRaw%2) + 1
		b := NewMatrixBoard(n, r)
		s := NewLQF(n)
		rng := sim.NewRNG(seed)
		var m Matching
		for slot := uint64(0); slot < 30; slot++ {
			for in := 0; in < n; in++ {
				if rng.Bernoulli(0.7) {
					b.Add(in, rng.Intn(n), 1)
				}
			}
			s.TickInto(slot, b, &m)
			if err := m.Validate(n, r); err != nil {
				return false
			}
			for in, out := range m.Out {
				if out >= 0 {
					if b.Queued(in, out) <= 0 {
						return false
					}
					b.Take(in, out)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLQFSaturationThroughput(t *testing.T) {
	uniform := func(in, out int) int { return 1 }
	got := drainThroughput(NewLQF(16), 16, 1, 400, uniform)
	if got < 0.95 {
		t.Errorf("LQF uniform saturation throughput %.3f", got)
	}
}

func TestLQFPrefersDeepQueues(t *testing.T) {
	b := NewMatrixBoard(4, 1)
	b.Add(0, 2, 10)
	b.Add(1, 2, 1)
	var m Matching
	NewLQF(4).TickInto(0, b, &m)
	if m.Out[0] != 2 {
		t.Errorf("LQF granted output 2 to input %v, want the 10-deep input 0", m.Out)
	}
	if m.Out[1] == 2 {
		t.Error("output 2 double-granted at r=1")
	}
}

func TestLQFMaximal(t *testing.T) {
	// The greedy pass must leave no grantable pair behind.
	b := NewMatrixBoard(4, 1)
	for in := 0; in < 4; in++ {
		for out := 0; out < 4; out++ {
			b.Add(in, out, 1+in+out)
		}
	}
	var m Matching
	NewLQF(4).TickInto(0, b, &m)
	if m.Size() != 4 {
		t.Errorf("full demand should yield a perfect matching, got %d", m.Size())
	}
}

func TestLQFHandlesNonUniformBetterThanSingleIterISLIP(t *testing.T) {
	// Under the diagonal pattern LQF's weight awareness must not lose
	// to a single-iteration round robin.
	diag := func(in, out int) int {
		switch out {
		case in:
			return 2
		case (in + 1) % 16:
			return 1
		}
		return 0
	}
	lqf := drainThroughput(NewLQF(16), 16, 1, 400, diag)
	islip1 := drainThroughput(NewISLIP(16, 1), 16, 1, 400, diag)
	if lqf+0.02 < islip1 {
		t.Errorf("LQF %.3f clearly below 1-iter iSLIP %.3f on diagonal", lqf, islip1)
	}
}
