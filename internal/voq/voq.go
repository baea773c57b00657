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

// Egress models one output adapter: the cells that cross the crossbar
// in a slot (one per healthy receiver at most; the switch enforces
// that) queue here, and exactly one cell per slot drains onto the
// output line. The queue is unbounded. The zero value is ready to use.
type Egress struct {
	q        packet.Queue
	received uint64
	drained  uint64
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

// String summarizes the egress state.
func (e *Egress) String() string {
	return fmt.Sprintf("egress{rx=%d q=%d drained=%d}", e.received, e.q.Len(), e.drained)
}
