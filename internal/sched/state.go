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
	// constructed with the same parameters.
	LoadState(d *ckpt.Decoder) error
}

// saveIntRow writes an []int as one record.
func saveIntRow(e *ckpt.Encoder, key string, row []int) {
	fields := make([]string, len(row))
	for i, v := range row {
		fields[i] = ckpt.Int(int64(v))
	}
	e.Put(key, fields...)
}

// loadIntRow reads a record of exactly len(dst) integer fields into dst.
func loadIntRow(d *ckpt.Decoder, key string, dst []int) error {
	r := d.Record(key)
	if r.Len() != len(dst) {
		return fmt.Errorf("sched: %s row holds %d fields, want %d", key, r.Len(), len(dst))
	}
	for i := range dst {
		dst[i] = r.IntAsInt()
	}
	return r.Done()
}

// loadMatchingRow reads a matching row, validating each grant is -1 or a
// valid output index for an n-port switch.
func loadMatchingRow(d *ckpt.Decoder, key string, dst []int, n int) error {
	if err := loadIntRow(d, key, dst); err != nil {
		return err
	}
	for i, v := range dst {
		if v < -1 || v >= n {
			return fmt.Errorf("sched: %s grant %d for input %d out of range", key, v, i)
		}
	}
	return nil
}

// validatePtrRow checks round-robin pointers stay inside [0, n).
func validatePtrRow(key string, row []int, n int) error {
	for i, v := range row {
		if v < 0 || v >= n {
			return fmt.Errorf("sched: %s pointer %d at index %d out of [0,%d)", key, v, i, n)
		}
	}
	return nil
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
func (f *FLPPR) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("sched-flppr"); err != nil {
		return err
	}
	r := d.Record("flppr")
	n, k, head := r.IntAsInt(), r.IntAsInt(), r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	if n != f.n || k != f.k {
		return fmt.Errorf("sched: flppr checkpoint is %dx%d-sub, live scheduler %dx%d-sub", n, k, f.n, f.k)
	}
	if head < 0 || head >= k {
		return fmt.Errorf("sched: flppr head %d out of [0,%d)", head, k)
	}
	for s := 0; s < k; s++ {
		if err := loadIntRow(d, "gptr", f.grantPtr[s]); err != nil {
			return err
		}
		if err := validatePtrRow("gptr", f.grantPtr[s], n); err != nil {
			return err
		}
		if err := loadIntRow(d, "aptr", f.acceptPtr[s]); err != nil {
			return err
		}
		if err := validatePtrRow("aptr", f.acceptPtr[s], n); err != nil {
			return err
		}
	}
	for j := range f.pend {
		pr := d.Record("pend")
		sub := pr.IntAsInt()
		if err := pr.Done(); err != nil {
			return err
		}
		if sub < 0 || sub >= k {
			return fmt.Errorf("sched: flppr pend sub %d out of [0,%d)", sub, k)
		}
		f.pend[j].sub = sub
		if err := loadMatchingRow(d, "m", f.pend[j].m.Out, n); err != nil {
			return err
		}
		f.pend[j].st.derive(f.pend[j].m.Out)
	}
	f.head = head
	return d.End("sched-flppr")
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
func (s *ISLIP) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("sched-islip"); err != nil {
		return err
	}
	r := d.Record("islip")
	n, iters := r.IntAsInt(), r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	if n != s.n || iters != s.iters {
		return fmt.Errorf("sched: islip checkpoint is %d-port/%d-iter, live scheduler %d/%d", n, iters, s.n, s.iters)
	}
	if err := loadIntRow(d, "gptr", s.grantPtr); err != nil {
		return err
	}
	if err := validatePtrRow("gptr", s.grantPtr, n); err != nil {
		return err
	}
	if err := loadIntRow(d, "aptr", s.acceptPtr); err != nil {
		return err
	}
	if err := validatePtrRow("aptr", s.acceptPtr, n); err != nil {
		return err
	}
	return d.End("sched-islip")
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
func (p *PIM) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("sched-pim"); err != nil {
		return err
	}
	r := d.Record("pim")
	n, iters := r.IntAsInt(), r.IntAsInt()
	var st [4]uint64
	st[0], st[1], st[2], st[3] = r.Uint(), r.Uint(), r.Uint(), r.Uint()
	if err := r.Done(); err != nil {
		return err
	}
	if n != p.n || iters != p.iters {
		return fmt.Errorf("sched: pim checkpoint is %d-port/%d-iter, live scheduler %d/%d", n, iters, p.n, p.iters)
	}
	if err := p.rng.Restore(st); err != nil {
		return err
	}
	return d.End("sched-pim")
}

// SaveState implements StateCodec: LQF is memoryless between ticks, so
// the record carries only the shape for validation.
func (l *LQF) SaveState(e *ckpt.Encoder) {
	e.Begin("sched-lqf")
	e.Put("lqf", ckpt.Int(int64(l.n)))
	e.End("sched-lqf")
}

// LoadState implements StateCodec.
func (l *LQF) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("sched-lqf"); err != nil {
		return err
	}
	r := d.Record("lqf")
	n := r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	if n != l.n {
		return fmt.Errorf("sched: lqf checkpoint is %d-port, live scheduler %d", n, l.n)
	}
	return d.End("sched-lqf")
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
func (s *PipelinedISLIP) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("sched-pislip"); err != nil {
		return err
	}
	r := d.Record("pislip")
	n, depth, pos := r.IntAsInt(), r.IntAsInt(), r.Uint()
	if err := r.Done(); err != nil {
		return err
	}
	if n != s.n || depth != s.depth {
		return fmt.Errorf("sched: pipelined-islip checkpoint is %d-port/depth-%d, live scheduler %d/%d", n, depth, s.n, s.depth)
	}
	if err := loadIntRow(d, "gptr", s.grantPtr); err != nil {
		return err
	}
	if err := validatePtrRow("gptr", s.grantPtr, n); err != nil {
		return err
	}
	if err := loadIntRow(d, "aptr", s.acceptPtr); err != nil {
		return err
	}
	if err := validatePtrRow("aptr", s.acceptPtr, n); err != nil {
		return err
	}
	for i := range s.delay {
		if err := loadMatchingRow(d, "m", s.delay[i].Out, n); err != nil {
			return err
		}
	}
	s.pos = pos
	return d.End("sched-pislip")
}

// Interface conformance: every fabric scheduler checkpoints.
var (
	_ StateCodec = (*FLPPR)(nil)
	_ StateCodec = (*ISLIP)(nil)
	_ StateCodec = (*PIM)(nil)
	_ StateCodec = (*LQF)(nil)
	_ StateCodec = (*PipelinedISLIP)(nil)
)
