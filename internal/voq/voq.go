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

// outQueue is one (input, output) entry of a VOQ set: the data-class
// queue and the two counters every hop reads beside it, packed into
// 32 bytes so a push, pop or demand check touches one record. Control
// cells queue in a separate array (VOQSet.ctrl), read only for outputs
// whose backlog exceeds their data queue.
type outQueue struct {
	data packet.Queue
	// backlog counts queued cells of both classes.
	backlog int32
	// committed counts cells already promised to in-flight pipelined
	// matchings and not yet transmitted; pipelined schedulers must not
	// double-request them.
	committed int32
}

// VOQSet is the virtual-output-queue array of one ingress adapter:
// one queue per (output, class).
type VOQSet struct {
	n    int
	outs []outQueue
	// ctrl[out] is the control-class queue. It is non-empty exactly
	// when outs[out].backlog exceeds outs[out].data.Len(), so Pop reads
	// it only for outputs holding control cells.
	ctrl  []packet.Queue
	depth int // total cells across all queues
	// occ is the dense uncommitted-occupancy row: bit out is set iff
	// Uncommitted(out) > 0. Maintained in O(1) by every mutator so
	// demand boards can hand schedulers whole words instead of
	// re-deriving a backlog and a commitment count per (in, out) pair.
	// Derived state: checkpoint codecs rebuild it instead of saving it.
	occ []uint64
}

// NewVOQSet creates VOQs for a switch with n outputs.
func NewVOQSet(n int) *VOQSet {
	return &VOQSet{
		n:    n,
		outs: make([]outQueue, n),
		ctrl: make([]packet.Queue, n),
		occ:  make([]uint64, bitrow.Words(n)),
	}
}

// N reports the output count.
func (v *VOQSet) N() int { return v.n }

// syncOcc re-derives the occupancy bit of one output after a mutation —
// the only place the bit is ever written, so occ is exact by induction.
//
//osmosis:hotpath
//osmosis:shardsafe
func (v *VOQSet) syncOcc(out int) {
	o := &v.outs[out]
	bitrow.SetTo(v.occ, out, o.backlog > o.committed)
}

// Push enqueues a cell toward its destination queue.
//
//osmosis:shardsafe
func (v *VOQSet) Push(c *packet.Cell, out int) {
	o := &v.outs[out]
	if c.Class == packet.Control {
		v.ctrl[out].Push(c)
	} else {
		o.data.Push(c)
	}
	v.depth++
	o.backlog++
	v.syncOcc(out)
}

// Backlog reports queued cells for an output across both classes.
//
//osmosis:hotpath
//osmosis:shardsafe
func (v *VOQSet) Backlog(out int) int {
	return int(v.outs[out].backlog)
}

// Uncommitted reports cells for an output not yet promised to an
// in-flight matching; this is what a pipelined scheduler may request.
func (v *VOQSet) Uncommitted(out int) int {
	o := &v.outs[out]
	return int(max(o.backlog-o.committed, 0))
}

// UncommittedAt reports whether Uncommitted(out) is positive, from the
// maintained occupancy bit — no counter re-derivation.
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
	v.outs[out].committed++
	v.syncOcc(out)
}

// Uncommit releases a promise (e.g. a matching slot went unused).
//
//osmosis:hotpath
//osmosis:shardsafe
func (v *VOQSet) Uncommit(out int) {
	if o := &v.outs[out]; o.committed > 0 {
		o.committed--
		v.syncOcc(out)
	}
}

// Pop dequeues the next cell for out, control class first (strict
// priority, §IV), also releasing one commitment if any.
//
//osmosis:shardsafe
func (v *VOQSet) Pop(out int) *packet.Cell {
	o := &v.outs[out]
	var c *packet.Cell
	if int(o.backlog) > o.data.Len() {
		c = v.ctrl[out].Pop()
	} else {
		c = o.data.Pop()
	}
	if c != nil {
		v.depth--
		o.backlog--
		if o.committed > 0 {
			o.committed--
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
	if c := v.ctrl[out].Peek(); c != nil {
		oldest = c
	}
	if c := v.outs[out].data.Peek(); c != nil && (oldest == nil || c.Injected < oldest.Injected) {
		oldest = c
	}
	if oldest == nil {
		return 0
	}
	return now - oldest.Injected
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

	q        packet.Queue
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
