// Checkpoint codecs for the workload generators. A generator's mutable
// state is its RNG stream plus whatever burst/phase machinery spans
// slots; the pattern, rates, and topology parameters are configuration,
// rebuilt by Build from the job spec, and are not serialized. Each codec
// opens a section named after the generator kind, so restoring a
// checkpoint into a differently built workload fails loudly instead of
// silently misdrawing.
package traffic

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// StateCodec is implemented by every Generator in this package: the
// slot-to-slot state can be checkpointed and restored bit-exactly.
type StateCodec interface {
	// SaveState writes the generator's mutable state.
	SaveState(e *ckpt.Encoder)
	// LoadState restores state written by SaveState into a generator
	// built from the same configuration.
	LoadState(d *ckpt.Decoder) error
}

// saveRNG writes one RNG stream as an "rng" record.
func saveRNG(e *ckpt.Encoder, r *sim.RNG) {
	st := r.State()
	e.Put("rng", ckpt.Uint(st[0]), ckpt.Uint(st[1]), ckpt.Uint(st[2]), ckpt.Uint(st[3]))
}

// loadRNG restores one RNG stream from an "rng" record.
func loadRNG(d *ckpt.Decoder, r *sim.RNG) error {
	rec := d.Record("rng")
	var st [4]uint64
	st[0], st[1], st[2], st[3] = rec.Uint(), rec.Uint(), rec.Uint(), rec.Uint()
	if err := rec.Done(); err != nil {
		return err
	}
	return r.Restore(st)
}

// checkDwell refuses a negative dwell counter: Next draws a new dwell
// only when the counter reaches zero, so a negative one would hold the
// generator in its current state for good.
func checkDwell(kind string, remaining int) error {
	if remaining < 0 {
		return fmt.Errorf("traffic: %s checkpoint dwell counter %d is negative", kind, remaining)
	}
	return nil
}

// SaveState implements StateCodec.
func (b *Bernoulli) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-bernoulli")
	saveRNG(e, b.RNG)
	e.End("gen-bernoulli")
}

// LoadState implements StateCodec.
func (b *Bernoulli) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("gen-bernoulli"); err != nil {
		return err
	}
	if err := loadRNG(d, b.RNG); err != nil {
		return err
	}
	return d.End("gen-bernoulli")
}

// SaveState implements StateCodec.
func (o *OnOff) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-onoff")
	saveRNG(e, o.RNG)
	e.Put("burst", ckpt.Bool(o.on), ckpt.Int(int64(o.remaining)), ckpt.Int(int64(o.burstDst)))
	e.End("gen-onoff")
}

// LoadState implements StateCodec.
func (o *OnOff) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("gen-onoff"); err != nil {
		return err
	}
	if err := loadRNG(d, o.RNG); err != nil {
		return err
	}
	r := d.Record("burst")
	o.on, o.remaining, o.burstDst = r.Bool(), r.IntAsInt(), r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	if err := checkDwell("gen-onoff", o.remaining); err != nil {
		return err
	}
	return d.End("gen-onoff")
}

// SaveState implements StateCodec: both sub-processes plus the displaced
// data cells still waiting in the pending FIFO, oldest first.
func (b *Bimodal) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-bimodal")
	b.Control.SaveState(e)
	data, ok := b.Data.(StateCodec)
	if !ok {
		e.Fail(fmt.Errorf("traffic: bimodal data sub-generator %T is not checkpointable", b.Data))
		return
	}
	data.SaveState(e)
	e.Put("pending", ckpt.Int(int64(b.Pending())))
	for i := b.head; i < len(b.pending); i++ {
		a := b.pending[i]
		e.Put("arr", ckpt.Int(int64(a.Dst)), ckpt.Uint(uint64(a.Class)))
	}
	e.End("gen-bimodal")
}

// LoadState implements StateCodec.
func (b *Bimodal) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("gen-bimodal"); err != nil {
		return err
	}
	if err := b.Control.LoadState(d); err != nil {
		return err
	}
	data, ok := b.Data.(StateCodec)
	if !ok {
		return fmt.Errorf("traffic: bimodal data sub-generator %T is not checkpointable", b.Data)
	}
	if err := data.LoadState(d); err != nil {
		return err
	}
	r := d.Record("pending")
	n := r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("traffic: bimodal checkpoint pending count %d", n)
	}
	b.pending = b.pending[:0]
	b.head = 0
	for i := 0; i < n; i++ {
		ar := d.Record("arr")
		a := Arrival{Dst: ar.IntAsInt(), Class: ClassChoice(ar.Uint())}
		if err := ar.Done(); err != nil {
			return err
		}
		if a.Class > ClassControl {
			return fmt.Errorf("traffic: bimodal pending arrival class %d out of range", a.Class)
		}
		b.pending = append(b.pending, a)
	}
	return d.End("gen-bimodal")
}

// SaveState implements StateCodec.
func (m *MMPP) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-mmpp")
	saveRNG(e, m.RNG)
	e.Put("dwell", ckpt.Bool(m.high), ckpt.Int(int64(m.remaining)))
	e.End("gen-mmpp")
}

// LoadState implements StateCodec.
func (m *MMPP) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("gen-mmpp"); err != nil {
		return err
	}
	if err := loadRNG(d, m.RNG); err != nil {
		return err
	}
	r := d.Record("dwell")
	m.high, m.remaining = r.Bool(), r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	if err := checkDwell("gen-mmpp", m.remaining); err != nil {
		return err
	}
	return d.End("gen-mmpp")
}

// SaveState implements StateCodec. meanOn is derived from configuration
// in the constructor and is not state.
func (p *ParetoOnOff) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-pareto")
	saveRNG(e, p.RNG)
	e.Put("burst", ckpt.Bool(p.on), ckpt.Int(int64(p.remaining)), ckpt.Int(int64(p.burstDst)))
	e.End("gen-pareto")
}

// LoadState implements StateCodec.
func (p *ParetoOnOff) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("gen-pareto"); err != nil {
		return err
	}
	if err := loadRNG(d, p.RNG); err != nil {
		return err
	}
	r := d.Record("burst")
	p.on, p.remaining, p.burstDst = r.Bool(), r.IntAsInt(), r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	if err := checkDwell("gen-pareto", p.remaining); err != nil {
		return err
	}
	return d.End("gen-pareto")
}

// SaveState implements StateCodec.
func (g *Incast) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-incast")
	saveRNG(e, g.RNG)
	e.End("gen-incast")
}

// LoadState implements StateCodec.
func (g *Incast) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("gen-incast"); err != nil {
		return err
	}
	if err := loadRNG(d, g.RNG); err != nil {
		return err
	}
	return d.End("gen-incast")
}

// SaveState implements StateCodec.
func (g *AllToAll) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-alltoall")
	saveRNG(e, g.RNG)
	e.End("gen-alltoall")
}

// LoadState implements StateCodec.
func (g *AllToAll) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("gen-alltoall"); err != nil {
		return err
	}
	if err := loadRNG(d, g.RNG); err != nil {
		return err
	}
	return d.End("gen-alltoall")
}

// SaveState implements StateCodec: the ring schedule is a pure function
// of (slot, configuration); only the kind marker is recorded.
func (g *RingAllReduce) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-ring")
	e.End("gen-ring")
}

// LoadState implements StateCodec.
func (g *RingAllReduce) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("gen-ring"); err != nil {
		return err
	}
	return d.End("gen-ring")
}

// SaveState implements StateCodec.
func (g *TreeAllReduce) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-tree")
	saveRNG(e, g.RNG)
	e.End("gen-tree")
}

// LoadState implements StateCodec.
func (g *TreeAllReduce) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("gen-tree"); err != nil {
		return err
	}
	if err := loadRNG(d, g.RNG); err != nil {
		return err
	}
	return d.End("gen-tree")
}

// SaveState implements StateCodec: the replay cursor.
func (p *TracePlayer) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-trace")
	e.Put("cursor", ckpt.Int(int64(p.pos)), ckpt.Int(int64(len(p.events))))
	e.End("gen-trace")
}

// LoadState implements StateCodec.
func (p *TracePlayer) LoadState(d *ckpt.Decoder) error {
	if err := d.Begin("gen-trace"); err != nil {
		return err
	}
	r := d.Record("cursor")
	pos, n := r.IntAsInt(), r.IntAsInt()
	if err := r.Done(); err != nil {
		return err
	}
	if n != len(p.events) {
		return fmt.Errorf("traffic: trace checkpoint has %d events for this port, live player %d", n, len(p.events))
	}
	if pos < 0 || pos > n {
		return fmt.Errorf("traffic: trace checkpoint cursor %d out of [0,%d]", pos, n)
	}
	p.pos = pos
	return d.End("gen-trace")
}

// Interface conformance: every generator kind checkpoints.
var (
	_ StateCodec = (*Bernoulli)(nil)
	_ StateCodec = (*OnOff)(nil)
	_ StateCodec = (*Bimodal)(nil)
	_ StateCodec = (*MMPP)(nil)
	_ StateCodec = (*ParetoOnOff)(nil)
	_ StateCodec = (*Incast)(nil)
	_ StateCodec = (*AllToAll)(nil)
	_ StateCodec = (*RingAllReduce)(nil)
	_ StateCodec = (*TreeAllReduce)(nil)
	_ StateCodec = (*TracePlayer)(nil)
)
