// Checkpoint codecs for the arbiters. A scheduler's mutable state is its
// desynchronizing pointers plus (for the pipelined designs) the
// in-flight matchings; scratch buffers are rebuilt every tick and carry
// no state. Each codec validates the shape parameters (port count,
// sub-scheduler count, pipeline depth) against the live instance, so a
// checkpoint can only restore into a scheduler constructed from the same
// configuration.
package sched

import (
	"fmt"

	"repro/internal/ckpt"
)

// StateCodec is implemented by every Scheduler in this package whose
// tick-to-tick state can be checkpointed and restored bit-exactly.
type StateCodec interface {
	// SaveState writes the scheduler's mutable state.
	SaveState(e *ckpt.Encoder)
	// LoadState restores state written by SaveState into a scheduler
	// constructed with the same parameters; a refusal latches on d.
	LoadState(d *ckpt.Decoder)
}

// saveIntRow writes an []int as one record.
func saveIntRow(e *ckpt.Encoder, key string, row []int) {
	fields := make([]string, len(row))
	for i, v := range row {
		fields[i] = ckpt.Int(int64(v))
	}
	e.Put(key, fields...)
}

// loadIntRow reads a record of exactly len(dst) integer fields, each in
// [lo, hi), into dst: round-robin pointers are in [0, n), and a matching
// row holds -1 or an output of an n-port switch.
func loadIntRow(d *ckpt.Decoder, key string, dst []int, lo, hi int) {
	r := d.Record(key)
	if r.Len() != len(dst) {
		d.Fail(fmt.Errorf("sched: %s row holds %d fields, want %d", key, r.Len(), len(dst)))
		return
	}
	for i := range dst {
		dst[i] = r.IntIn(lo, hi)
	}
	r.Done()
}

// SaveState implements StateCodec: per-sub-scheduler pointer pairs plus
// the ring of in-flight partial matchings.
func (f *FLPPR) SaveState(e *ckpt.Encoder) {
	e.Begin("sched-flppr")
	e.Put("flppr", ckpt.Int(int64(f.n)), ckpt.Int(int64(f.k)), ckpt.Int(int64(f.head)))
	for s := 0; s < f.k; s++ {
		saveIntRow(e, "gptr", f.grantPtr[s])
		saveIntRow(e, "aptr", f.acceptPtr[s])
	}
	for j := range f.pend {
		e.Put("pend", ckpt.Int(int64(f.pend[j].sub)))
		saveIntRow(e, "m", f.pend[j].m.Out)
	}
	e.End("sched-flppr")
}

// LoadState implements StateCodec.
func (f *FLPPR) LoadState(d *ckpt.Decoder) {
	d.Begin("sched-flppr")
	r := d.Record("flppr")
	if n, k := r.Int(), r.Int(); n != int64(f.n) || k != int64(f.k) {
		d.Fail(fmt.Errorf("sched: flppr checkpoint is %dx%d-sub, live scheduler %dx%d-sub", n, k, f.n, f.k))
		return
	}
	f.head = r.IntIn(0, f.k)
	r.Done()
	for s := 0; s < f.k; s++ {
		loadIntRow(d, "gptr", f.grantPtr[s], 0, f.n)
		loadIntRow(d, "aptr", f.acceptPtr[s], 0, f.n)
	}
	for j := range f.pend {
		pr := d.Record("pend")
		f.pend[j].sub = pr.IntIn(0, f.k)
		pr.Done()
		loadIntRow(d, "m", f.pend[j].m.Out, -1, f.n)
		f.pend[j].st.derive(f.pend[j].m.Out)
	}
	d.End("sched-flppr")
}

// SaveState implements StateCodec: the two round-robin pointer rows.
func (s *ISLIP) SaveState(e *ckpt.Encoder) {
	e.Begin("sched-islip")
	e.Put("islip", ckpt.Int(int64(s.n)), ckpt.Int(int64(s.iters)))
	saveIntRow(e, "gptr", s.grantPtr)
	saveIntRow(e, "aptr", s.acceptPtr)
	e.End("sched-islip")
}

// LoadState implements StateCodec.
func (s *ISLIP) LoadState(d *ckpt.Decoder) {
	d.Begin("sched-islip")
	r := d.Record("islip")
	if n, iters := r.Int(), r.Int(); n != int64(s.n) || iters != int64(s.iters) {
		d.Fail(fmt.Errorf("sched: islip checkpoint is %d-port/%d-iter, live scheduler %d/%d", n, iters, s.n, s.iters))
		return
	}
	r.Done()
	loadIntRow(d, "gptr", s.grantPtr, 0, s.n)
	loadIntRow(d, "aptr", s.acceptPtr, 0, s.n)
	d.End("sched-islip")
}

// SaveState implements StateCodec: PIM's only tick-to-tick state is its
// RNG stream.
func (p *PIM) SaveState(e *ckpt.Encoder) {
	e.Begin("sched-pim")
	st := p.rng.State()
	e.Put("pim", ckpt.Int(int64(p.n)), ckpt.Int(int64(p.iters)),
		ckpt.Uint(st[0]), ckpt.Uint(st[1]), ckpt.Uint(st[2]), ckpt.Uint(st[3]))
	e.End("sched-pim")
}

// LoadState implements StateCodec.
func (p *PIM) LoadState(d *ckpt.Decoder) {
	d.Begin("sched-pim")
	r := d.Record("pim")
	if n, iters := r.Int(), r.Int(); n != int64(p.n) || iters != int64(p.iters) {
		d.Fail(fmt.Errorf("sched: pim checkpoint is %d-port/%d-iter, live scheduler %d/%d", n, iters, p.n, p.iters))
		return
	}
	var st [4]uint64
	st[0], st[1], st[2], st[3] = r.Uint(), r.Uint(), r.Uint(), r.Uint()
	r.Done()
	d.Fail(p.rng.Restore(st))
	d.End("sched-pim")
}

// SaveState implements StateCodec: LQF is memoryless between ticks, so
// the record carries only the shape for validation.
func (l *LQF) SaveState(e *ckpt.Encoder) {
	e.Begin("sched-lqf")
	e.Put("lqf", ckpt.Int(int64(l.n)))
	e.End("sched-lqf")
}

// LoadState implements StateCodec.
func (l *LQF) LoadState(d *ckpt.Decoder) {
	d.Begin("sched-lqf")
	r := d.Record("lqf")
	if n := r.Int(); n != int64(l.n) {
		d.Fail(fmt.Errorf("sched: lqf checkpoint is %d-port, live scheduler %d", n, l.n))
		return
	}
	r.Done()
	d.End("sched-lqf")
}

// SaveState implements StateCodec: pointer rows plus the grant delay
// line and its ring cursor.
func (s *PipelinedISLIP) SaveState(e *ckpt.Encoder) {
	e.Begin("sched-pislip")
	e.Put("pislip", ckpt.Int(int64(s.n)), ckpt.Int(int64(s.depth)), ckpt.Uint(s.pos))
	saveIntRow(e, "gptr", s.grantPtr)
	saveIntRow(e, "aptr", s.acceptPtr)
	for i := range s.delay {
		saveIntRow(e, "m", s.delay[i].Out)
	}
	e.End("sched-pislip")
}

// LoadState implements StateCodec.
func (s *PipelinedISLIP) LoadState(d *ckpt.Decoder) {
	d.Begin("sched-pislip")
	r := d.Record("pislip")
	if n, depth := r.Int(), r.Int(); n != int64(s.n) || depth != int64(s.depth) {
		d.Fail(fmt.Errorf("sched: pipelined-islip checkpoint is %d-port/depth-%d, live scheduler %d/%d", n, depth, s.n, s.depth))
		return
	}
	s.pos = r.Uint()
	r.Done()
	loadIntRow(d, "gptr", s.grantPtr, 0, s.n)
	loadIntRow(d, "aptr", s.acceptPtr, 0, s.n)
	for i := range s.delay {
		loadIntRow(d, "m", s.delay[i].Out, -1, s.n)
	}
	d.End("sched-pislip")
}

// Interface conformance: every fabric scheduler checkpoints.
var (
	_ StateCodec = (*FLPPR)(nil)
	_ StateCodec = (*ISLIP)(nil)
	_ StateCodec = (*PIM)(nil)
	_ StateCodec = (*LQF)(nil)
	_ StateCodec = (*PipelinedISLIP)(nil)
)
