// Checkpoint codecs for the electronic buffering: VOQ contents (with
// the pipelined schedulers' commitment counters) and egress queues. Cell
// order within every queue is preserved exactly — it is the order the
// restored run will transmit in.
package voq

import (
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
// be freshly constructed (empty) with the same output count.
func (v *VOQSet) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("voqs"); err != nil {
		return err
	}
	r := d.Record("voqset")
	n := r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	if n != v.n {
		return fmt.Errorf("voq: checkpoint VOQ set has %d outputs, live set %d", n, v.n)
	}
	if v.depth != 0 {
		return fmt.Errorf("voq: LoadState into non-empty VOQ set (depth %d)", v.depth)
	}
	for !d.AtEnd("voqs") {
		switch key := d.PeekKey(); key {
		case "comm":
			cr := d.Record("comm")
			out, c := cr.IntAsInt(), cr.IntAsInt()
			if err := cr.Done(); err != nil {
				return err
			}
			if out < 0 || out >= v.n || c < 0 || c > math.MaxInt32 {
				return fmt.Errorf("voq: checkpoint commitment %d at output %d out of range", c, out)
			}
			v.outs[out].committed = int32(c)
		case "q":
			qr := d.Record("q")
			class, out, count := qr.IntAsInt(), qr.IntAsInt(), qr.IntAsInt()
			if err := qr.Done(); err != nil {
				return err
			}
			if class < 0 || class > 1 || out < 0 || out >= v.n || count <= 0 {
				return fmt.Errorf("voq: checkpoint queue (%d,%d) x%d out of range", class, out, count)
			}
			if v.Backlog(out)+count > math.MaxInt32 {
				return fmt.Errorf("voq: checkpoint output %d holds more than %d cells", out, math.MaxInt32)
			}
			for i := 0; i < count; i++ {
				c, err := packet.LoadCell(d)
				if err != nil {
					return err
				}
				if c.Class != packet.Class(class) {
					return fmt.Errorf("voq: cell %d class %v in class-%d queue", c.ID, c.Class, class)
				}
				v.Push(c, out)
			}
		default:
			return fmt.Errorf("voq: unexpected record %q in VOQ checkpoint", key)
		}
	}
	// The backlog counters and occupancy row are derived state, kept by
	// Push and re-synced here after the commitments: the checkpoint
	// format stays oblivious to both.
	for out := range v.outs {
		v.syncOcc(out)
	}
	return d.End("voqs")
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
// configuration, not state, and are left untouched.
func (e *Egress) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("egress"); err != nil {
		return err
	}
	r := d.Record("eg")
	received, drained, queued := r.Uint(), r.Uint(), r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	if e.q.Len() != 0 {
		return fmt.Errorf("voq: LoadState into non-empty egress (%d queued)", e.q.Len())
	}
	if queued < 0 {
		return fmt.Errorf("voq: checkpoint egress queue length %d", queued)
	}
	e.received = received
	e.drained = drained
	for i := 0; i < queued; i++ {
		c, err := packet.LoadCell(d)
		if err != nil {
			return err
		}
		e.q.Push(c)
	}
	return d.End("egress")
}
