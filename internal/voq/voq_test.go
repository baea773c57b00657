package voq

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestFIFOOrder(t *testing.T) {
	var f FIFO
	if f.Pop() != nil || f.Peek() != nil {
		t.Error("empty FIFO should return nil")
	}
	cells := make([]*packet.Cell, 200)
	for i := range cells {
		cells[i] = &packet.Cell{ID: uint64(i)}
		f.Push(cells[i])
	}
	if f.Len() != 200 {
		t.Errorf("len %d", f.Len())
	}
	for i := range cells {
		if got := f.Pop(); got != cells[i] {
			t.Fatalf("pop %d: got %v", i, got)
		}
	}
}

func TestFIFOCompaction(t *testing.T) {
	var f FIFO
	// Interleave pushes and pops so the ring wraps many times.
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			f.Push(&packet.Cell{ID: uint64(next)})
			next++
		}
		for i := 0; i < 10; i++ {
			c := f.Pop()
			if c == nil || c.ID != uint64(want) {
				t.Fatalf("round %d: got %v want %d", round, c, want)
			}
			want++
		}
	}
	if f.Len() != 0 {
		t.Errorf("len %d after drain", f.Len())
	}
}

// TestFIFOMatchesSliceModel drives a FIFO and a plain-slice reference
// queue with the same random Push/Pop/Peek/At sequence. Bursts of pushes
// grow the ring while its contents wrap past the end of the buffer, so
// the unwrapping copy in grow is exercised, not just the happy path.
func TestFIFOMatchesSliceModel(t *testing.T) {
	rng := sim.NewRNG(11)
	var f FIFO
	var model []*packet.Cell
	next := uint64(0)
	wrappedGrowth := 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			burst := 1
			if rng.Intn(8) == 0 {
				burst = 1 + rng.Intn(40)
			}
			for i := 0; i < burst; i++ {
				if f.Len() == len(f.buf) && f.head != 0 {
					wrappedGrowth++
				}
				c := &packet.Cell{ID: next}
				next++
				f.Push(c)
				model = append(model, c)
			}
		case op < 8:
			got := f.Pop()
			var want *packet.Cell
			if len(model) > 0 {
				want, model = model[0], model[1:]
			}
			if got != want {
				t.Fatalf("step %d: Pop = %v, model %v", step, got, want)
			}
		case op < 9:
			var want *packet.Cell
			if len(model) > 0 {
				want = model[0]
			}
			if got := f.Peek(); got != want {
				t.Fatalf("step %d: Peek = %v, model %v", step, got, want)
			}
		default:
			for i, want := range model {
				if got := f.At(i); got != want {
					t.Fatalf("step %d: At(%d) = %v, model %v", step, i, got, want)
				}
			}
		}
		if f.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, f.Len(), len(model))
		}
	}
	if wrappedGrowth == 0 {
		t.Error("no push grew a wrapped ring; the model test lost its coverage")
	}
}

// TestFIFORingStaysSmall pins the memory bound: a queue that never holds
// more than d cells keeps a ring of max(4, nextPow2(d)) slots however
// many cells pass through it. Engines keep one FIFO per (input, output,
// class), so a per-queue leak of a few hundred bytes is hundreds of MB
// at 2048 ports.
func TestFIFORingStaysSmall(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4, 5, 8, 13, 64} {
		var f FIFO
		rng := sim.NewRNG(uint64(d))
		for cycle := 0; cycle < 10000; cycle++ {
			for f.Len() < 1+rng.Intn(d) {
				f.Push(&packet.Cell{})
			}
			for n := rng.Intn(f.Len() + 1); n > 0; n-- {
				f.Pop()
			}
		}
		limit := minRing
		for limit < d {
			limit *= 2
		}
		if len(f.buf) > limit {
			t.Errorf("depth <= %d: ring grew to %d slots, want <= %d", d, len(f.buf), limit)
		}
	}
}

// TestFIFOHeaderSize: fabric.New zeroes one FIFO header per (input,
// output, class) — ~786k at the 2048-port flagship — so any growth past
// a slice plus two uint32 cursors (32 bytes on 64-bit) shows up directly
// in set-up time.
func TestFIFOHeaderSize(t *testing.T) {
	want := unsafe.Sizeof([]*packet.Cell(nil)) + 2*unsafe.Sizeof(uint32(0))
	if got := unsafe.Sizeof(FIFO{}); got > want {
		t.Errorf("FIFO header is %d bytes, want <= %d", got, want)
	}
}

// TestFIFOSteadyStateAllocs: once the ring covers the working depth,
// push/pop cycles allocate nothing.
func TestFIFOSteadyStateAllocs(t *testing.T) {
	var f FIFO
	cells := []*packet.Cell{{ID: 1}, {ID: 2}, {ID: 3}}
	cycle := func() {
		for _, c := range cells {
			f.Push(c)
		}
		for range cells {
			f.Pop()
		}
		f.Push(cells[0]) // leave one behind so the cursor keeps moving
		f.Pop()
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("steady-depth push/pop allocates %.1f times per cycle, want 0", allocs)
	}
}

func TestVOQPriority(t *testing.T) {
	v := NewVOQSet(4)
	d := &packet.Cell{ID: 1, Class: packet.Data}
	c := &packet.Cell{ID: 2, Class: packet.Control}
	v.Push(d, 2)
	v.Push(c, 2)
	if got := v.Pop(2); got != c {
		t.Errorf("control must pop first, got %v", got)
	}
	if got := v.Pop(2); got != d {
		t.Errorf("then data, got %v", got)
	}
}

func TestVOQBacklogAndDepth(t *testing.T) {
	v := NewVOQSet(4)
	v.Push(&packet.Cell{}, 0)
	v.Push(&packet.Cell{}, 0)
	v.Push(&packet.Cell{Class: packet.Control}, 3)
	if v.Backlog(0) != 2 || v.Backlog(3) != 1 || v.Backlog(1) != 0 {
		t.Errorf("backlogs %d/%d/%d", v.Backlog(0), v.Backlog(3), v.Backlog(1))
	}
	if v.Depth() != 3 {
		t.Errorf("depth %d", v.Depth())
	}
	v.Pop(0)
	if v.Depth() != 2 {
		t.Errorf("depth after pop %d", v.Depth())
	}
}

func TestVOQCommitAccounting(t *testing.T) {
	v := NewVOQSet(2)
	v.Push(&packet.Cell{}, 1)
	v.Push(&packet.Cell{}, 1)
	if v.Uncommitted(1) != 2 {
		t.Errorf("uncommitted %d", v.Uncommitted(1))
	}
	v.Commit(1)
	if v.Uncommitted(1) != 1 {
		t.Errorf("after commit: %d", v.Uncommitted(1))
	}
	v.Commit(1)
	v.Commit(1) // over-commit beyond backlog
	if v.Uncommitted(1) != 0 {
		t.Errorf("over-committed should clamp at 0, got %d", v.Uncommitted(1))
	}
	v.Uncommit(1)
	v.Pop(1) // pop releases one commitment too
	if v.Uncommitted(1) != 0 {
		t.Errorf("after pop: %d", v.Uncommitted(1))
	}
}

func TestVOQCommitNeverExceedsBacklogProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		v := NewVOQSet(3)
		for _, op := range ops {
			out := int(op) % 3
			switch (op / 3) % 4 {
			case 0:
				v.Push(&packet.Cell{}, out)
			case 1:
				if v.Uncommitted(out) > 0 {
					v.Commit(out)
				}
			case 2:
				v.Pop(out)
			case 3:
				v.Uncommit(out)
			}
			if v.Uncommitted(out) < 0 || v.Uncommitted(out) > v.Backlog(out) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEgressBudgetAndDrain(t *testing.T) {
	e := NewEgress(2, 3)
	if e.SlotBudget() != 2 {
		t.Errorf("budget %d", e.SlotBudget())
	}
	e.Receive(&packet.Cell{ID: 1})
	e.Receive(&packet.Cell{ID: 2})
	if e.SlotBudget() != 1 {
		t.Errorf("budget with 1 slot left: %d", e.SlotBudget())
	}
	e.Receive(&packet.Cell{ID: 3})
	if e.SlotBudget() != 0 {
		t.Errorf("budget when full: %d", e.SlotBudget())
	}
	if c := e.Drain(); c == nil || c.ID != 1 {
		t.Errorf("drain order wrong: %v", c)
	}
	if e.Received() != 3 || e.Drained() != 1 || e.Queued() != 2 {
		t.Errorf("counters rx=%d drained=%d q=%d", e.Received(), e.Drained(), e.Queued())
	}
}

func TestEgressUnbounded(t *testing.T) {
	e := NewEgress(1, 0)
	for i := 0; i < 100; i++ {
		e.Receive(&packet.Cell{})
	}
	if e.SlotBudget() != 1 {
		t.Errorf("unbounded egress budget %d", e.SlotBudget())
	}
}

func TestHeadWait(t *testing.T) {
	v := NewVOQSet(2)
	if v.HeadWait(0, 100) != 0 {
		t.Error("empty queue should report zero wait")
	}
	v.Push(&packet.Cell{Injected: 10}, 0)
	v.Push(&packet.Cell{Injected: 20}, 0)
	if got := v.HeadWait(0, 50); got != 40 {
		t.Errorf("head wait %v", got)
	}
}
