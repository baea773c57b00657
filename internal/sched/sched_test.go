package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 64: 6, 65: 7, 256: 8}
	for n, want := range cases {
		if got := Log2Ceil(n); got != want {
			t.Errorf("Log2Ceil(%d) = %d want %d", n, got, want)
		}
	}
}

func TestMatchingValidate(t *testing.T) {
	m := NewMatching(4)
	if m.Size() != 0 {
		t.Errorf("empty matching size %d", m.Size())
	}
	m.Out[0] = 2
	m.Out[1] = 2
	if err := m.Validate(4, 1); err == nil {
		t.Error("double-matched output accepted with r=1")
	}
	if err := m.Validate(4, 2); err != nil {
		t.Errorf("dual receiver should allow 2: %v", err)
	}
	m.Out[2] = 7
	if err := m.Validate(4, 2); err == nil {
		t.Error("out-of-range output accepted")
	}
}

// every scheduler must produce valid matchings against arbitrary demand.
func TestSchedulersProduceValidMatchingsProperty(t *testing.T) {
	mks := map[string]func(n int) Scheduler{
		"islip":     func(n int) Scheduler { return NewISLIP(n, 0) },
		"pim":       func(n int) Scheduler { return NewPIM(n, 0, 5) },
		"pipelined": func(n int) Scheduler { return NewPipelinedISLIP(n, 0) },
		"flppr":     func(n int) Scheduler { return NewFLPPR(n, 0) },
	}
	for name, mk := range mks {
		name, mk := name, mk
		f := func(seed uint64, rRaw, nRaw uint8) bool {
			n := int(nRaw%7)*2 + 4 // 4..16
			r := int(rRaw%2) + 1
			b := NewMatrixBoard(n, r)
			s := mk(n)
			rng := sim.NewRNG(seed)
			var m Matching
			for slot := uint64(0); slot < 40; slot++ {
				// Random arrivals.
				for in := 0; in < n; in++ {
					if rng.Bernoulli(0.6) {
						b.Add(in, rng.Intn(n), 1)
					}
				}
				s.TickInto(slot, b, &m)
				if err := m.Validate(n, r); err != nil {
					t.Logf("%s: %v", name, err)
					return false
				}
				// Execute the matching: every granted edge must have a cell.
				for in, out := range m.Out {
					if out < 0 {
						continue
					}
					if b.Queued(in, out) <= 0 {
						t.Logf("%s: grant for empty VOQ in=%d out=%d", name, in, out)
						return false
					}
					b.Take(in, out)
				}
				// Commit invariants: committed never exceeds demand.
				for i, c := range b.committed {
					if c > b.queued[i] {
						t.Logf("%s: committed %d > demand %d at (%d,%d)",
							name, c, b.queued[i], i/n, i%n)
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// drainThroughput loads every VOQ heavily and measures how many cells a
// scheduler moves per slot per port (max throughput under saturation).
func drainThroughput(s Scheduler, n, r int, slots int, pattern func(in, out int) int) float64 {
	b := NewMatrixBoard(n, r)
	for in := 0; in < n; in++ {
		for out := 0; out < n; out++ {
			b.Add(in, out, pattern(in, out))
		}
	}
	moved := 0
	var m Matching
	for slot := 0; slot < slots; slot++ {
		// Keep queues saturated.
		for in := 0; in < n; in++ {
			for out := 0; out < n; out++ {
				if pattern(in, out) > 0 && b.Queued(in, out) < 4 {
					b.Add(in, out, 4)
				}
			}
		}
		s.TickInto(uint64(slot), b, &m)
		for in, out := range m.Out {
			if out >= 0 && b.Queued(in, out) > 0 {
				b.Take(in, out)
				moved++
			}
		}
	}
	return float64(moved) / float64(slots) / float64(n)
}

func TestISLIPSaturationThroughputUniform(t *testing.T) {
	// iSLIP with log2 N iterations sustains ~100% under uniform
	// saturation (the McKeown result the paper builds on).
	uniform := func(in, out int) int { return 1 }
	got := drainThroughput(NewISLIP(16, 0), 16, 1, 400, uniform)
	if got < 0.95 {
		t.Errorf("iSLIP uniform saturation throughput %.3f, want > 0.95", got)
	}
}

func TestISLIPSingleIterationWeaker(t *testing.T) {
	uniform := func(in, out int) int { return 1 }
	one := drainThroughput(NewISLIP(16, 1), 16, 1, 400, uniform)
	full := drainThroughput(NewISLIP(16, 0), 16, 1, 400, uniform)
	if one > full+0.01 {
		t.Errorf("1-iteration iSLIP (%.3f) should not beat log2N iterations (%.3f)", one, full)
	}
}

func TestPIMRandomSaturation(t *testing.T) {
	// PIM with log2 N iterations should still be near work-conserving
	// under uniform saturation; with 1 iteration it degrades toward the
	// classic 1 - 1/e ~ 0.63.
	uniform := func(in, out int) int { return 1 }
	full := drainThroughput(NewPIM(16, 0, 3), 16, 1, 400, uniform)
	if full < 0.9 {
		t.Errorf("PIM log2N-iteration throughput %.3f", full)
	}
	one := drainThroughput(NewPIM(16, 1, 3), 16, 1, 400, uniform)
	if one < 0.55 || one > 0.85 {
		t.Errorf("PIM 1-iteration throughput %.3f, want near 0.63-0.75", one)
	}
}

func TestFLPPRSaturationThroughput(t *testing.T) {
	uniform := func(in, out int) int { return 1 }
	got := drainThroughput(NewFLPPR(16, 0), 16, 1, 400, uniform)
	if got < 0.95 {
		t.Errorf("FLPPR saturation throughput %.3f, want > 0.95", got)
	}
}

func TestPipelinedISLIPSaturationThroughput(t *testing.T) {
	uniform := func(in, out int) int { return 1 }
	got := drainThroughput(NewPipelinedISLIP(16, 0), 16, 1, 400, uniform)
	if got < 0.95 {
		t.Errorf("pipelined iSLIP saturation throughput %.3f, want > 0.95", got)
	}
}

func TestPermutationTrafficFullRate(t *testing.T) {
	// A permutation demand admits a perfect matching every slot; all
	// round-robin schedulers must find it quickly.
	perm := func(in, out int) int {
		if out == (in+5)%16 {
			return 1
		}
		return 0
	}
	for _, mk := range []Scheduler{NewISLIP(16, 0), NewFLPPR(16, 0), NewPipelinedISLIP(16, 0)} {
		if got := drainThroughput(mk, 16, 1, 300, perm); got < 0.95 {
			t.Errorf("%s permutation throughput %.3f", mk.Name(), got)
		}
	}
}

func TestGrantLatencyContract(t *testing.T) {
	if got := NewFLPPR(64, 0).GrantLatency(); got != 1 {
		t.Errorf("FLPPR grant latency %d, want 1 (Fig. 6)", got)
	}
	if got := NewPipelinedISLIP(64, 0).GrantLatency(); got != 6 {
		t.Errorf("prior-art grant latency %d, want log2(64)=6 (Fig. 6)", got)
	}
	if got := NewISLIP(64, 0).GrantLatency(); got != 1 {
		t.Errorf("combinational iSLIP grant latency %d", got)
	}
}

// TestFLPPRSingleRequestGrantLatency reproduces the Fig. 6 microcosm: a
// single request in an otherwise idle switch is granted in the very next
// tick by FLPPR, but only after the pipeline depth by the prior art.
func TestFLPPRSingleRequestGrantLatency(t *testing.T) {
	grantDelay := func(s Scheduler, n int) int {
		b := NewMatrixBoard(n, 1)
		var m Matching
		// Warm the pipelines with empty demand.
		var slot uint64
		for ; slot < 16; slot++ {
			s.TickInto(slot, b, &m)
		}
		b.Add(3, 7, 1)
		for d := 0; d < 32; d++ {
			s.TickInto(slot, b, &m)
			slot++
			if m.Out[3] == 7 {
				return d + 1
			}
		}
		return -1
	}
	if got := grantDelay(NewFLPPR(64, 0), 64); got != 1 {
		t.Errorf("FLPPR granted a lone request after %d cycles, want 1", got)
	}
	if got := grantDelay(NewPipelinedISLIP(64, 0), 64); got != 6 {
		t.Errorf("prior art granted a lone request after %d cycles, want 6", got)
	}
}

func TestDualReceiverDoublesHotspotDrain(t *testing.T) {
	// All inputs want output 0: a single-receiver switch drains 1
	// cell/slot, a dual-receiver switch 2 cells/slot (the OSMOSIS
	// dual-path advantage at hot outputs).
	hot := func(in, out int) int {
		if out == 0 {
			return 1
		}
		return 0
	}
	single := drainThroughput(NewISLIP(8, 0), 8, 1, 200, hot) * 8
	dual := drainThroughput(NewISLIP(8, 0), 8, 2, 200, hot) * 8
	if single < 0.95 || single > 1.05 {
		t.Errorf("single receiver hotspot drain %.3f cells/slot, want ~1", single)
	}
	if dual < 1.9 || dual > 2.1 {
		t.Errorf("dual receiver hotspot drain %.3f cells/slot, want ~2", dual)
	}
}
