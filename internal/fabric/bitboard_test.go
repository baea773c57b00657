package fabric

// Property suite for the incrementally-maintained demand bitboard: at
// any reachable fabric state, nodeBoard's DemandRowBits/DemandColBits
// must agree bit-for-bit with the scalar Demand method.
// The bits are maintained by O(1) updates scattered across push, pop,
// commit, uncommit, credit consume, and credit land — this test is the
// oracle that all of those update sites together keep the dense rows
// exactly equal to the slow re-derivation.

import (
	"fmt"
	"testing"

	"repro/internal/bitrow"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// checkNodeBoards compares every node's bitboard against the scalar
// Demand truth, both row-wise and column-wise.
func checkNodeBoards(t *testing.T, f *Fabric, phase string) {
	t.Helper()
	for ni, n := range f.nodes {
		b := nodeBoard{n}
		row := make([]uint64, bitrow.Words(n.radix))
		for in := 0; in < n.radix; in++ {
			b.DemandRowBits(in, row)
			for out := 0; out < n.radix; out++ {
				want := b.Demand(in, out) > 0
				got := row[out/64]>>(out%64)&1 == 1
				if got != want {
					t.Fatalf("%s slot %d node %d: row bit (in=%d,out=%d)=%v, scalar Demand=%d",
						phase, f.Slot(), ni, in, out, got, b.Demand(in, out))
				}
			}
		}
		col := make([]uint64, bitrow.Words(n.radix))
		for out := 0; out < n.radix; out++ {
			b.DemandColBits(out, col)
			for in := 0; in < n.radix; in++ {
				want := b.Demand(in, out) > 0
				got := col[in/64]>>(in%64)&1 == 1
				if got != want {
					t.Fatalf("%s slot %d node %d: col bit (in=%d,out=%d)=%v, scalar Demand=%d",
						phase, f.Slot(), ni, in, out, got, b.Demand(in, out))
				}
			}
		}
	}
}

// TestBitBoardMatchesScalarDemand sweeps both buffer placements and
// both a grant-immediate and a pipelined (committing) scheduler, with
// InputCapacity pinched to 2 so hotspot load keeps outputs flickering
// in and out of the credit mask. After every slot of the run and of the
// drain, the dense bits must equal the scalar board.
func TestBitBoardMatchesScalarDemand(t *testing.T) {
	scheds := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"flppr", func() sched.Scheduler { return sched.NewFLPPR(8, 0) }},
		{"pipelined", func() sched.Scheduler { return sched.NewPipelinedISLIP(8, 0) }},
	}
	for _, sc := range scheds {
		for _, opt1 := range []bool{false, true} {
			opt := "option3"
			if opt1 {
				opt = "option1"
			}
			sc := sc
			t.Run(fmt.Sprintf("%s/%s", sc.name, opt), func(t *testing.T) {
				f := smallFabric(t, func(c *Config) {
					c.NewScheduler = sc.mk
					c.EgressBuffered = opt1
					c.InputCapacity = 2
				})
				gens, err := traffic.Build(traffic.Config{Kind: traffic.KindHotspot, N: 32,
					Load: 0.9, HotPort: 3, HotFraction: 0.5, Seed: 77})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 400; i++ {
					if err := injectArrivals(f, gens); err != nil {
						t.Fatal(err)
					}
					if err := f.Step(); err != nil {
						t.Fatal(err)
					}
					checkNodeBoards(t, f, "run")
				}
				for i := 0; i < 20000 && !f.Idle(); i++ {
					if err := f.Step(); err != nil {
						t.Fatal(err)
					}
					checkNodeBoards(t, f, "drain")
				}
				if !f.Idle() {
					t.Fatal("fabric failed to drain")
				}
			})
		}
	}
}
