// Checkpoint codecs for the workload generators. A generator's mutable
// state is its RNG stream plus whatever burst/phase machinery spans
// slots; the pattern, rates, and topology parameters are configuration,
// rebuilt by Build from the job spec, and are not serialized. Each codec
// opens a section named after the generator kind, so restoring a
// checkpoint into a differently built workload fails loudly instead of
// silently misdrawing. Every Generator is such a codec.
package traffic

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// saveRNG writes one RNG stream as an "rng" record.
func saveRNG(e *ckpt.Encoder, r *sim.RNG) {
	st := r.State()
	e.Put("rng", ckpt.Uint(st[0]), ckpt.Uint(st[1]), ckpt.Uint(st[2]), ckpt.Uint(st[3]))
}

// loadRNG restores one RNG stream from an "rng" record.
func loadRNG(d *ckpt.Decoder, r *sim.RNG) {
	rec := d.Record("rng")
	var st [4]uint64
	st[0], st[1], st[2], st[3] = rec.Uint(), rec.Uint(), rec.Uint(), rec.Uint()
	rec.Done()
	d.Fail(r.Restore(st))
}

// SaveState implements Generator.
func (b *Bernoulli) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-bernoulli")
	saveRNG(e, b.RNG)
	e.End("gen-bernoulli")
}

// LoadState implements Generator.
func (b *Bernoulli) LoadState(d *ckpt.Decoder) {
	d.Begin("gen-bernoulli")
	loadRNG(d, b.RNG)
	d.End("gen-bernoulli")
}

// SaveState implements Generator.
func (o *OnOff) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-onoff")
	saveRNG(e, o.RNG)
	e.Put("burst", ckpt.Bool(o.on), ckpt.Int(int64(o.remaining)), ckpt.Int(int64(o.burstDst)))
	e.End("gen-onoff")
}

// LoadState implements Generator. The dwell counter must not be
// negative — Next draws a new dwell only when it reaches zero, so a
// negative one would hold the source in its state for good — and the
// burst destination must be one of the n ports.
func (o *OnOff) LoadState(d *ckpt.Decoder) {
	d.Begin("gen-onoff")
	loadRNG(d, o.RNG)
	r := d.Record("burst")
	o.on, o.remaining, o.burstDst = r.Bool(), r.IntIn(0, math.MaxInt), r.IntIn(0, o.n)
	r.Done()
	d.End("gen-onoff")
}

// SaveState implements Generator: both sub-processes plus the displaced
// data cells still waiting in the pending FIFO, oldest first.
func (b *Bimodal) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-bimodal")
	b.Control.SaveState(e)
	b.Data.SaveState(e)
	e.Put("pending", ckpt.Int(int64(b.Pending())))
	for i := b.head; i < len(b.pending); i++ {
		a := b.pending[i]
		e.Put("arr", ckpt.Int(int64(a.Dst)), ckpt.Uint(uint64(a.Class)))
	}
	e.End("gen-bimodal")
}

// LoadState implements Generator. Pending arrivals must be toward one
// of the n ports.
func (b *Bimodal) LoadState(d *ckpt.Decoder) {
	d.Begin("gen-bimodal")
	b.Control.LoadState(d)
	b.Data.LoadState(d)
	r := d.Record("pending")
	n := r.Count()
	r.Done()
	b.pending = b.pending[:0]
	b.head = 0
	for i := 0; i < n; i++ {
		ar := d.Record("arr")
		b.pending = append(b.pending, Arrival{Dst: ar.IntIn(0, b.n), Class: ClassChoice(ar.UintIn(0, uint64(ClassControl)+1))})
		ar.Done()
	}
	d.End("gen-bimodal")
}

// SaveState implements Generator.
func (m *MMPP) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-mmpp")
	saveRNG(e, m.RNG)
	e.Put("dwell", ckpt.Bool(m.high), ckpt.Int(int64(m.remaining)))
	e.End("gen-mmpp")
}

// LoadState implements Generator. As for an ON/OFF source, the dwell
// counter must not be negative.
func (m *MMPP) LoadState(d *ckpt.Decoder) {
	d.Begin("gen-mmpp")
	loadRNG(d, m.RNG)
	r := d.Record("dwell")
	m.high, m.remaining = r.Bool(), r.IntIn(0, math.MaxInt)
	r.Done()
	d.End("gen-mmpp")
}

// SaveState implements Generator. meanOn is derived from configuration
// in the constructor and is not state.
func (p *ParetoOnOff) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-pareto")
	saveRNG(e, p.RNG)
	e.Put("burst", ckpt.Bool(p.on), ckpt.Int(int64(p.remaining)), ckpt.Int(int64(p.burstDst)))
	e.End("gen-pareto")
}

// LoadState implements Generator, with OnOff's dwell and destination
// bounds.
func (p *ParetoOnOff) LoadState(d *ckpt.Decoder) {
	d.Begin("gen-pareto")
	loadRNG(d, p.RNG)
	r := d.Record("burst")
	p.on, p.remaining, p.burstDst = r.Bool(), r.IntIn(0, math.MaxInt), r.IntIn(0, p.n)
	r.Done()
	d.End("gen-pareto")
}

// SaveState implements Generator.
func (g *Incast) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-incast")
	saveRNG(e, g.RNG)
	e.End("gen-incast")
}

// LoadState implements Generator.
func (g *Incast) LoadState(d *ckpt.Decoder) {
	d.Begin("gen-incast")
	loadRNG(d, g.RNG)
	d.End("gen-incast")
}

// SaveState implements Generator.
func (g *AllToAll) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-alltoall")
	saveRNG(e, g.RNG)
	e.End("gen-alltoall")
}

// LoadState implements Generator.
func (g *AllToAll) LoadState(d *ckpt.Decoder) {
	d.Begin("gen-alltoall")
	loadRNG(d, g.RNG)
	d.End("gen-alltoall")
}

// SaveState implements Generator: the ring schedule is a pure function
// of (slot, configuration); only the kind marker is recorded.
func (g *RingAllReduce) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-ring")
	e.End("gen-ring")
}

// LoadState implements Generator.
func (g *RingAllReduce) LoadState(d *ckpt.Decoder) {
	d.Begin("gen-ring")
	d.End("gen-ring")
}

// SaveState implements Generator.
func (g *TreeAllReduce) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-tree")
	saveRNG(e, g.RNG)
	e.End("gen-tree")
}

// LoadState implements Generator.
func (g *TreeAllReduce) LoadState(d *ckpt.Decoder) {
	d.Begin("gen-tree")
	loadRNG(d, g.RNG)
	d.End("gen-tree")
}

// SaveState implements Generator: the replay cursor.
func (p *TracePlayer) SaveState(e *ckpt.Encoder) {
	e.Begin("gen-trace")
	e.Put("cursor", ckpt.Int(int64(p.pos)), ckpt.Int(int64(len(p.events))))
	e.End("gen-trace")
}

// LoadState implements Generator.
func (p *TracePlayer) LoadState(d *ckpt.Decoder) {
	d.Begin("gen-trace")
	r := d.Record("cursor")
	pos, n := r.IntIn(0, len(p.events)+1), r.Int()
	r.Done()
	if n != int64(len(p.events)) {
		d.Fail(fmt.Errorf("traffic: trace checkpoint has %d events for this port, live player %d", n, len(p.events)))
	}
	p.pos = pos
	d.End("gen-trace")
}
