// Package voq implements the electronic buffering around the bufferless
// optical crossbar: per-input Virtual Output Queues with two strict
// priority classes (control before data), ingress adapters that turn
// arrivals into scheduler requests, and egress queues fed by one or two
// receivers per port (§V dual-receiver architecture).
//
// VOQs are the paper's central architectural consequence: an optical
// packet switch has no internal buffers, so it is an input-queued switch
// and needs VOQs to defeat head-of-line blocking (§III, [17]).
package voq

import (
	"fmt"

	"repro/internal/bitrow"
	"repro/internal/packet"
	"repro/internal/units"
)

// FIFO is a cell queue on a power-of-two ring that doubles when full.
// Queues hold only a few cells in steady state (credits bound them), so
// the ring starts at minRing slots and stays at the smallest power of
// two covering the deepest backlog the queue has ever held. The header
// is 32 bytes — a slice plus two uint32 cursors — because engines
// allocate and zero one per (input, output, class).
type FIFO struct {
	buf     []*packet.Cell
	head, n uint32
}

// minRing is the first ring size a queue allocates.
const minRing = 4

// Len reports the number of queued cells.
func (f *FIFO) Len() int { return int(f.n) }

// Push appends a cell.
func (f *FIFO) Push(c *packet.Cell) {
	if int(f.n) == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&uint32(len(f.buf)-1)] = c
	f.n++
}

// grow doubles the ring (or allocates the first one), unwrapping the
// queued cells to the front of the new ring.
func (f *FIFO) grow() {
	//lint:ignore hotpath rings double only past their deepest backlog so far; cap-stable once queues hit their credit-bounded steady-state depth
	buf := make([]*packet.Cell, max(minRing, 2*len(f.buf)))
	k := copy(buf, f.buf[f.head:])
	copy(buf[k:], f.buf[:f.head])
	f.buf = buf
	f.head = 0
}

// Pop removes and returns the oldest cell, or nil if empty.
func (f *FIFO) Pop() *packet.Cell {
	if f.n == 0 {
		return nil
	}
	c := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & uint32(len(f.buf)-1)
	f.n--
	return c
}

// Peek returns the oldest cell without removing it, or nil.
func (f *FIFO) Peek() *packet.Cell {
	if f.n == 0 {
		return nil
	}
	return f.buf[f.head]
}

// At returns the i-th oldest queued cell (At(0) is Peek); i must lie in
// [0, Len()). Walking At(0..Len()-1) visits the queue in FIFO order.
func (f *FIFO) At(i int) *packet.Cell {
	return f.buf[(f.head+uint32(i))&uint32(len(f.buf)-1)]
}

// VOQSet is the virtual-output-queue array of one ingress adapter:
// one queue per (output, class).
type VOQSet struct {
	n int
	// queues[class][output]
	queues [2][]FIFO
	// committed[output] counts cells already promised to in-flight
	// pipelined matchings and not yet transmitted; pipelined schedulers
	// must not double-request them.
	committed []int
	depth     int // total cells across all queues
	// control counts queued control-class cells, so Pop skips the
	// control queue's header — a cache miss at large N — when the set
	// holds none. Derived state, rebuilt on restore.
	control int
	// occ is the dense uncommitted-occupancy row: bit out is set iff
	// Uncommitted(out) > 0. Maintained in O(1) by every mutator so
	// demand boards can hand schedulers whole words instead of
	// re-deriving two FIFO lengths and a counter per (in, out) pair.
	// Derived state: checkpoint codecs rebuild it instead of saving it.
	occ []uint64
	// backlog[output] mirrors queues[0][out].Len()+queues[1][out].Len()
	// so the Backlog/Uncommitted hot reads touch one contiguous counter
	// array instead of two FIFO headers on separate cache lines. Derived
	// state, rebuilt on restore like occ.
	backlog []int
}

// NewVOQSet creates VOQs for a switch with n outputs.
func NewVOQSet(n int) *VOQSet {
	v := &VOQSet{n: n, committed: make([]int, n), occ: make([]uint64, bitrow.Words(n)), backlog: make([]int, n)}
	v.queues[0] = make([]FIFO, n)
	v.queues[1] = make([]FIFO, n)
	return v
}

// N reports the output count.
func (v *VOQSet) N() int { return v.n }

// syncOcc re-derives the occupancy bit of one output after a mutation —
// the only place the bit is ever written, so occ is exact by induction.
//
//osmosis:hotpath
//osmosis:shardsafe
func (v *VOQSet) syncOcc(out int) {
	bitrow.SetTo(v.occ, out, v.Backlog(out) > v.committed[out])
}

// Push enqueues a cell toward its destination queue.
//
//osmosis:shardsafe
func (v *VOQSet) Push(c *packet.Cell, out int) {
	class := classIndex(c.Class)
	v.queues[class][out].Push(c)
	v.control += class
	v.depth++
	v.backlog[out]++
	v.syncOcc(out)
}

// Backlog reports queued cells for an output across both classes.
//
//osmosis:hotpath
//osmosis:shardsafe
func (v *VOQSet) Backlog(out int) int {
	return v.backlog[out]
}

// Uncommitted reports cells for an output not yet promised to an
// in-flight matching; this is what a pipelined scheduler may request.
func (v *VOQSet) Uncommitted(out int) int {
	u := v.Backlog(out) - v.committed[out]
	if u < 0 {
		return 0
	}
	return u
}

// UncommittedAt reports whether Uncommitted(out) is positive, from the
// maintained occupancy bit — no FIFO-length re-derivation.
func (v *VOQSet) UncommittedAt(out int) bool { return bitrow.Has(v.occ, out) }

// UncommittedBits exposes the maintained uncommitted-occupancy row (bit
// out set iff Uncommitted(out) > 0). The words are live VOQ state —
// callers may read or AND-copy them but must never write them.
func (v *VOQSet) UncommittedBits() []uint64 { return v.occ }

// Commit records that one more cell for out has been promised a grant.
//
//osmosis:hotpath
//osmosis:shardsafe
func (v *VOQSet) Commit(out int) {
	v.committed[out]++
	v.syncOcc(out)
}

// Uncommit releases a promise (e.g. a matching slot went unused).
//
//osmosis:hotpath
//osmosis:shardsafe
func (v *VOQSet) Uncommit(out int) {
	if v.committed[out] > 0 {
		v.committed[out]--
		v.syncOcc(out)
	}
}

// Pop dequeues the next cell for out, control class first (strict
// priority, §IV), also releasing one commitment if any.
//
//osmosis:shardsafe
func (v *VOQSet) Pop(out int) *packet.Cell {
	var c *packet.Cell
	if v.control > 0 && v.queues[1][out].Len() > 0 {
		c = v.queues[1][out].Pop()
		v.control--
	} else {
		c = v.queues[0][out].Pop()
	}
	if c != nil {
		v.depth--
		v.backlog[out]--
		if v.committed[out] > 0 {
			v.committed[out]--
		}
		v.syncOcc(out)
	}
	return c
}

// Depth reports total cells queued across all outputs and classes.
func (v *VOQSet) Depth() int { return v.depth }

// HeadWait reports the age of the oldest head-of-line cell for out, or
// zero when empty; schedulers may use it for longest-wait policies.
func (v *VOQSet) HeadWait(out int, now units.Time) units.Time {
	var oldest *packet.Cell
	if c := v.queues[1][out].Peek(); c != nil {
		oldest = c
	}
	if c := v.queues[0][out].Peek(); c != nil && (oldest == nil || c.Injected < oldest.Injected) {
		oldest = c
	}
	if oldest == nil {
		return 0
	}
	return now - oldest.Injected
}

func classIndex(c packet.Class) int {
	if c == packet.Control {
		return 1
	}
	return 0
}

// Egress models one output adapter: up to Receivers cells may arrive per
// slot from the crossbar (the dual-receiver broadcast-and-select option
// gives two paths per output), queue them, and drain exactly one cell
// per slot onto the output line.
type Egress struct {
	// Receivers is the number of simultaneously usable receive paths.
	Receivers int
	// Capacity bounds the egress queue; zero means unbounded. When the
	// queue is full the egress withholds credits (remote flow control).
	Capacity int

	q        FIFO
	received uint64
	drained  uint64
}

// NewEgress creates an egress adapter with r receivers.
func NewEgress(r, capacity int) *Egress {
	if r < 1 {
		r = 1
	}
	return &Egress{Receivers: r, Capacity: capacity}
}

// SlotBudget reports how many cells the egress can accept this slot,
// respecting both receiver count and remaining queue space.
func (e *Egress) SlotBudget() int {
	b := e.Receivers
	if e.Capacity > 0 {
		room := e.Capacity - e.q.Len()
		if room < b {
			b = room
		}
	}
	if b < 0 {
		return 0
	}
	return b
}

// Receive accepts a cell from the crossbar.
//
//osmosis:shardsafe
func (e *Egress) Receive(c *packet.Cell) {
	e.q.Push(c)
	e.received++
}

// Drain removes the cell to transmit on the output line this slot, or
// nil when idle.
//
//osmosis:shardsafe
func (e *Egress) Drain() *packet.Cell {
	c := e.q.Pop()
	if c != nil {
		e.drained++
	}
	return c
}

// Queued reports the egress queue occupancy.
func (e *Egress) Queued() int { return e.q.Len() }

// Received reports total cells accepted from the crossbar.
func (e *Egress) Received() uint64 { return e.received }

// Drained reports total cells put on the line.
func (e *Egress) Drained() uint64 { return e.drained }

// String summarizes the egress state.
func (e *Egress) String() string {
	return fmt.Sprintf("egress{rx=%d q=%d drained=%d}", e.received, e.q.Len(), e.drained)
}
