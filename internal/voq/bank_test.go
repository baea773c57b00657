package voq

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/packet"
	"repro/internal/sim"
)

// checkBank re-derives every piece of the bank's maintained state by
// brute force and compares: the columns are the exact transpose of the
// rows, every bit agrees with Uncommitted(out) > 0, and the depth
// maximum and resident count match a scan of the VOQ sets.
func checkBank(t *testing.T, b *Bank, step int) {
	t.Helper()
	row := make([]uint64, b.words)
	col := make([]uint64, b.words)
	maxDepth, resident := 0, 0
	for in := 0; in < b.n; in++ {
		b.DemandRowBits(in, row)
		cells := 0
		for out := 0; out < b.n; out++ {
			want := b.sets[in].Uncommitted(out) > 0
			if got := row[out/64]>>(out%64)&1 == 1; got != want {
				t.Fatalf("step %d: row bit (in=%d,out=%d)=%v, Uncommitted=%d", step, in, out, got, b.sets[in].Uncommitted(out))
			}
			if got := b.Demand(in, out) > 0; got != want {
				t.Fatalf("step %d: Demand(%d,%d)=%d disagrees with Uncommitted=%d", step, in, out, b.Demand(in, out), b.sets[in].Uncommitted(out))
			}
			s := &b.sets[in]
			queued := s.outs[out].data.Len()
			if s.ctrl != nil {
				queued += s.ctrl[out].Len()
			}
			if s.Backlog(out) != queued {
				t.Fatalf("step %d: backlog (in=%d,out=%d)=%d, queues hold %d", step, in, out, s.Backlog(out), queued)
			}
			cells += queued
		}
		if cells != b.Depth(in) {
			t.Fatalf("step %d: input %d depth %d, queues hold %d", step, in, b.Depth(in), cells)
		}
		maxDepth = max(maxDepth, cells)
		resident += cells
	}
	for out := 0; out < b.n; out++ {
		b.DemandColBits(out, col)
		for in := 0; in < b.n; in++ {
			b.DemandRowBits(in, row)
			rowBit := row[out/64]>>(out%64)&1 == 1
			if colBit := col[in/64]>>(in%64)&1 == 1; colBit != rowBit {
				t.Fatalf("step %d: col bit (in=%d,out=%d)=%v, row bit %v", step, in, out, colBit, rowBit)
			}
		}
	}
	if b.MaxDepth() != maxDepth {
		t.Fatalf("step %d: MaxDepth %d, scan %d", step, b.MaxDepth(), maxDepth)
	}
	if b.Resident() != resident {
		t.Fatalf("step %d: Resident %d, scan %d", step, b.Resident(), resident)
	}
}

// roundTripBank restores b's checkpoint into a fresh bank.
func roundTripBank(t *testing.T, b *Bank) *Bank {
	t.Helper()
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	b.SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	fresh := NewBank(b.n)
	d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	fresh.LoadState(d, b.n)
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return fresh
}

// TestBankMatchesBruteForce drives seeded random Push/Pop/Commit/
// Uncommit sequences the way the engines do (commitments only on
// demand) and checks the maintained state against a full re-derivation
// after every operation. Pushes favour a few hot inputs so the depth
// histogram climbs and falls through many maxima; a checkpoint
// round-trip midway proves LoadState rebuilds the same derived state.
func TestBankMatchesBruteForce(t *testing.T) {
	for _, n := range []int{8, 64, 100} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := sim.NewRNG(uint64(n))
			alloc := packet.NewAllocator()
			b := NewBank(n)
			checkBank(t, b, -1)
			steps := 4000
			if n > 8 {
				steps = 800
			}
			for step := 0; step < steps; step++ {
				in, out := rng.Intn(n), rng.Intn(n)
				if rng.Bernoulli(0.5) {
					in = rng.Intn(3)
				}
				switch op := rng.Intn(10); {
				case op < 4:
					cls := packet.Data
					if rng.Bernoulli(0.2) {
						cls = packet.Control
					}
					b.Push(in, alloc.New(in, out, cls, 0), out)
				case op < 7:
					had := b.sets[in].Backlog(out)
					if c := b.Pop(in, out); (c != nil) != (had > 0) {
						t.Fatalf("step %d: Pop(%d,%d) = %v with backlog %d", step, in, out, c, had)
					}
				case op < 9:
					if b.Demand(in, out) > 0 {
						b.Commit(in, out)
					}
				default:
					b.Uncommit(in, out)
				}
				checkBank(t, b, step)
				if step == steps/2 {
					b = roundTripBank(t, b)
					checkBank(t, b, step)
				}
			}
		})
	}
}

// TestBankSteadyStateAllocs: once the queues and the depth histogram
// cover the working depth, bank operations allocate nothing.
func TestBankSteadyStateAllocs(t *testing.T) {
	const n = 64
	b := NewBank(n)
	cells := make([]*packet.Cell, n)
	for i := range cells {
		cells[i] = &packet.Cell{ID: uint64(i)}
	}
	row := make([]uint64, b.words)
	cycle := func() {
		for in, c := range cells {
			b.Push(in, c, (in+1)%n)
			b.Push(in, c, (in+2)%n)
		}
		for in := range cells {
			b.Commit(in, (in+1)%n)
			b.DemandRowBits(in, row)
			b.DemandColBits(in, row)
			b.Uncommit(in, (in+2)%n)
			b.Pop(in, (in+1)%n)
			b.Pop(in, (in+2)%n)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("steady-state bank operations allocate %.1f times per cycle, want 0", allocs)
	}
}
