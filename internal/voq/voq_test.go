package voq

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/packet"
	"repro/internal/sim"
)

// The FIFO tests drive packet.Queue, the cell-linked queue every VOQ,
// control queue and egress adapter is built on.

func TestFIFOOrder(t *testing.T) {
	var f packet.Queue
	if f.Pop() != nil || peek(&f) != nil {
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
	var f packet.Queue
	// Interleave pushes and pops so the queue empties and refills many
	// times, re-pushing cells that have been through it before.
	pool := make([]*packet.Cell, 10)
	for i := range pool {
		pool[i] = &packet.Cell{}
	}
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			pool[i].ID = uint64(next)
			f.Push(pool[i])
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
	if f.Len() != 0 || peek(&f) != nil {
		t.Errorf("len %d, head %v after drain", f.Len(), peek(&f))
	}
}

// TestFIFOMatchesSliceModel drives a queue and a plain-slice reference
// queue with the same random Push/Pop/Peek/Each sequence. Popped cells
// go back to a pool that later pushes draw from, so relinking a cell
// that was queued before is exercised, not just fresh cells.
func TestFIFOMatchesSliceModel(t *testing.T) {
	rng := sim.NewRNG(11)
	var f packet.Queue
	var model, pool []*packet.Cell
	next := uint64(0)
	reused := 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			burst := 1
			if rng.Intn(8) == 0 {
				burst = 1 + rng.Intn(40)
			}
			for i := 0; i < burst; i++ {
				var c *packet.Cell
				if n := len(pool); n > 0 && rng.Intn(2) == 0 {
					c, pool = pool[n-1], pool[:n-1]
					reused++
				} else {
					c = &packet.Cell{}
				}
				c.ID = next
				next++
				f.Push(c)
				model = append(model, c)
			}
		case op < 8:
			got := f.Pop()
			var want *packet.Cell
			if len(model) > 0 {
				want, model = model[0], model[1:]
				pool = append(pool, want)
			}
			if got != want {
				t.Fatalf("step %d: Pop = %v, model %v", step, got, want)
			}
		case op < 9:
			var want *packet.Cell
			if len(model) > 0 {
				want = model[0]
			}
			if got := peek(&f); got != want {
				t.Fatalf("step %d: Peek = %v, model %v", step, got, want)
			}
		default:
			i := 0
			f.Each(func(got *packet.Cell) {
				if i >= len(model) || got != model[i] {
					t.Fatalf("step %d: Each visit %d = %v, model %v", step, i, got, model)
				}
				i++
			})
			if i != len(model) {
				t.Fatalf("step %d: Each visited %d cells, model %d", step, i, len(model))
			}
		}
		if f.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, f.Len(), len(model))
		}
	}
	if reused == 0 {
		t.Error("no push reused a popped cell; the model test lost its coverage")
	}
}

// TestFIFOHeaderSize: fabric.New zeroes one per-output VOQ record per
// (input, output) — ~262k at the 2048-port flagship — so any growth past
// the queue header plus two 32-bit counters (32 bytes on 64-bit) shows
// up directly in set-up time and in the working set every hop touches.
func TestFIFOHeaderSize(t *testing.T) {
	want := unsafe.Sizeof(packet.Queue{}) + 2*unsafe.Sizeof(int32(0))
	if got := unsafe.Sizeof(outQueue{}); got > want || got > 32 {
		t.Errorf("per-output VOQ record is %d bytes, want <= %d and <= 32", got, want)
	}
}

// TestFIFOSteadyStateAllocs: push/pop cycles never allocate.
func TestFIFOSteadyStateAllocs(t *testing.T) {
	var f packet.Queue
	cells := []*packet.Cell{{ID: 1}, {ID: 2}, {ID: 3}}
	cycle := func() {
		for _, c := range cells {
			f.Push(c)
		}
		for range cells {
			f.Pop()
		}
		f.Push(cells[0])
		f.Pop()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("push/pop allocates %.1f times per cycle, want 0", allocs)
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
	e := new(Egress)
	e.Receive(&packet.Cell{ID: 1})
	e.Receive(&packet.Cell{ID: 2})
	e.Receive(&packet.Cell{ID: 3})
	if c := e.Drain(); c == nil || c.ID != 1 {
		t.Errorf("drain order wrong: %v", c)
	}
	if e.Received() != 3 || e.Drained() != 1 || e.Queued() != 2 {
		t.Errorf("counters rx=%d drained=%d q=%d", e.Received(), e.Drained(), e.Queued())
	}
	e.Drain()
	e.Drain()
	if c := e.Drain(); c != nil || e.Drained() != 3 {
		t.Errorf("idle drain returned %v, drained=%d", c, e.Drained())
	}
}

func TestEgressUnbounded(t *testing.T) {
	e := new(Egress)
	for i := 0; i < 100; i++ {
		e.Receive(&packet.Cell{})
	}
	if e.Queued() != 100 {
		t.Errorf("unbounded egress holds %d of 100 cells", e.Queued())
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
