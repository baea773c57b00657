package voq

import (
	"repro/internal/packet"
	"repro/internal/units"
)

// peek returns the queue's head cell without removing it, or nil.
func peek(q *packet.Queue) *packet.Cell {
	var head *packet.Cell
	q.Each(func(c *packet.Cell) {
		if head == nil {
			head = c
		}
	})
	return head
}

// HeadWait reports the age of the oldest head-of-line cell for out, or
// zero when empty. No scheduler in the program weighs waiting time; the
// tests keep it as a probe of queue order across both classes.
func (v *VOQSet) HeadWait(out int, now units.Time) units.Time {
	var oldest *packet.Cell
	if v.ctrl != nil {
		oldest = peek(&v.ctrl[out])
	}
	if c := peek(&v.outs[out].data); c != nil && (oldest == nil || c.Injected < oldest.Injected) {
		oldest = c
	}
	if oldest == nil {
		return 0
	}
	return now - oldest.Injected
}

// Received reports total cells accepted from the crossbar.
func (e *Egress) Received() uint64 { return e.received }

// Drained reports total cells put on the line.
func (e *Egress) Drained() uint64 { return e.drained }
