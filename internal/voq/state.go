// Checkpoint codecs for the electronic buffering: VOQ contents (with
// the pipelined schedulers' commitment counters) and egress queues. Cell
// order within every queue is preserved exactly — it is the order the
// restored run will transmit in.
package voq

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/packet"
)

// SaveState serializes the VOQ array: per-output commitment counters and
// every queued cell in FIFO order. Only non-empty entries are written.
func (v *VOQSet) SaveState(e *ckpt.Encoder) {
	e.Begin("voqs")
	e.Put("voqset", ckpt.Int(int64(v.n)))
	for out := range v.outs {
		if c := v.outs[out].committed; c != 0 {
			e.Put("comm", ckpt.Int(int64(out)), ckpt.Int(int64(c)))
		}
	}
	save := func(class, out int, q *packet.Queue) {
		if q.Len() == 0 {
			return
		}
		e.Put("q", ckpt.Int(int64(class)), ckpt.Int(int64(out)), ckpt.Int(int64(q.Len())))
		q.Each(func(c *packet.Cell) { packet.SaveCell(e, c) })
	}
	for out := range v.outs {
		save(0, out, &v.outs[out].data)
	}
	for out := range v.ctrl {
		save(1, out, &v.ctrl[out])
	}
	e.End("voqs")
}

// LoadState restores a VOQ array saved by SaveState into v, which must
// be freshly constructed (empty) with the same output count. Queued
// cells must travel between ports of the engine, in [0, ports).
func (v *VOQSet) LoadState(d *ckpt.Decoder, ports int) {
	d.Begin("voqs")
	r := d.Record("voqset")
	n := r.Int()
	r.Done()
	if n != int64(v.n) {
		d.Fail(fmt.Errorf("voq: checkpoint VOQ set has %d outputs, live set %d", n, v.n))
		return
	}
	if v.depth != 0 {
		d.Fail(fmt.Errorf("voq: LoadState into non-empty VOQ set (depth %d)", v.depth))
		return
	}
	// Records come in the order SaveState writes them: nonzero
	// commitments by output, then non-empty queues by (class, output).
	// order is each record's rank in that order.
	prev := -1
	inOrder := func(order int) bool {
		if order <= prev {
			d.Fail(errors.New("voq: checkpoint record repeated or out of (commitments, class, output) order"))
			return false
		}
		prev = order
		return true
	}
	for !d.AtEnd("voqs") {
		switch key := d.PeekKey(); key {
		case "comm":
			cr := d.Record("comm")
			out, c := cr.IntIn(0, v.n), cr.IntIn(1, math.MaxInt32+1)
			cr.Done()
			if !inOrder(out) {
				return
			}
			v.outs[out].committed = int32(c)
		case "q":
			qr := d.Record("q")
			class, out, count := qr.IntIn(0, 2), qr.IntIn(0, v.n), qr.Count()
			qr.Done()
			if !inOrder(v.n*(1+class) + out) {
				return
			}
			if count == 0 || v.Backlog(out)+count > math.MaxInt32 {
				d.Fail(fmt.Errorf("voq: checkpoint queue (%d,%d) holds %d cells, want 1 to %d", class, out, count, math.MaxInt32-v.Backlog(out)))
				return
			}
			for i := 0; i < count; i++ {
				c := packet.LoadCell(d, ports)
				if c.Class != packet.Class(class) {
					d.Fail(fmt.Errorf("voq: cell %d class %v in class-%d queue", c.ID, c.Class, class))
				}
				v.Push(c, out)
			}
		default:
			d.Fail(fmt.Errorf("voq: unexpected record %q in VOQ checkpoint", key))
			return
		}
	}
	// The backlog counters and occupancy row are derived state, kept by
	// Push and re-synced here after the commitments: the checkpoint
	// format stays oblivious to both.
	for out := range v.outs {
		v.syncOcc(out)
	}
	d.End("voqs")
}

// SaveState serializes the egress adapter: line counters and the queued
// cells in drain order.
func (e *Egress) SaveState(enc *ckpt.Encoder) {
	enc.Begin("egress")
	enc.Put("eg", ckpt.Uint(e.received), ckpt.Uint(e.drained), ckpt.Int(int64(e.q.Len())))
	e.q.Each(func(c *packet.Cell) { packet.SaveCell(enc, c) })
	enc.End("egress")
}

// LoadState restores an egress adapter saved by SaveState into e, which
// must be freshly constructed (empty). Receivers/Capacity are
// configuration, not state, and are left untouched. Queued cells must
// travel between ports of the engine, in [0, ports).
func (e *Egress) LoadState(d *ckpt.Decoder, ports int) {
	d.Begin("egress")
	r := d.Record("eg")
	received, drained, queued := r.Uint(), r.Uint(), r.Count()
	r.Done()
	if e.q.Len() != 0 {
		d.Fail(fmt.Errorf("voq: LoadState into non-empty egress (%d queued)", e.q.Len()))
		return
	}
	e.received = received
	e.drained = drained
	for i := 0; i < queued; i++ {
		e.q.Push(packet.LoadCell(d, ports))
	}
	d.End("egress")
}
