package sched

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// Deflection-routing switch in the spirit of the Data Vortex (§II,
// ref [10]): contention is resolved *in the optical domain* by sending
// losing cells somewhere else instead of buffering them — modeled as an
// N-port bufferless stage where, per slot, one contender wins each
// output and every loser is deflected into a recirculation path that
// re-enters through an input port several slots later. The architecture
// needs no electronic buffers and scales to very high port counts, but
// the paper's criticisms emerge directly:
//
//   - a recirculating cell occupies an input, blocking fresh injection,
//     so sustained throughput per port is limited well below the ~0.99
//     of the buffered VOQ architecture;
//   - a deflected cell takes a longer path while its younger siblings
//     cut ahead, so per-flow delivery order is not preserved.
//
// This is a deliberate simplification of the full Data Vortex cylinder
// topology (documented in DESIGN.md): the recirculation loop stands in
// for the extra angle/height hops of a deflected cell, and re-entry
// contention for the vortex's injection-port blocking.
//
// The per-slot occupancy/contention scratch is retained across Steps and
// retired deflCell wrappers are recycled through a free list, so the
// steady-state slot allocates nothing.
type Deflect struct {
	n int
	// LoopSlots is the recirculation delay before a deflected cell
	// contends again. Recirculation is unbounded: no cell is dropped.
	LoopSlots int

	rng *sim.RNG
	// loop[t % len] holds cells re-entering at slot t.
	loop [][]*deflCell
	slot uint64

	// Per-slot scratch, retained across Steps.
	occupied   []*deflCell
	overflow   []*deflCell
	contenders [][]*deflCell
	// free recycles retired deflCell wrappers.
	free []*deflCell

	// Sink receives delivered cells with their latency in slots.
	Sink func(c *packet.Cell, latencySlots uint64)
}

type deflCell struct {
	c       *packet.Cell
	arrived uint64
	bounces int
}

// NewDeflect builds an n-port deflection switch.
func NewDeflect(n, loopSlots int) *Deflect {
	if loopSlots < 1 {
		loopSlots = 1
	}
	d := &Deflect{
		n:          n,
		LoopSlots:  loopSlots,
		rng:        sim.NewRNG(uint64(n)*0x9e3779b97f4a7c15 + 7),
		occupied:   make([]*deflCell, n),
		overflow:   make([]*deflCell, 0, n),
		contenders: make([][]*deflCell, n),
	}
	d.loop = make([][]*deflCell, loopSlots+1)
	return d
}

// get wraps a cell in a recycled (or new) deflCell.
func (d *Deflect) get(c *packet.Cell, arrived uint64) *deflCell {
	if n := len(d.free); n > 0 {
		dc := d.free[n-1]
		d.free = d.free[:n-1]
		dc.c, dc.arrived, dc.bounces = c, arrived, 0
		return dc
	}
	return &deflCell{c: c, arrived: arrived}
}

// put retires a deflCell wrapper back to the free list.
func (d *Deflect) put(dc *deflCell) {
	dc.c = nil
	//lint:ignore hotpath append into the retained free list; bounded by peak loop occupancy, cap-stable after warm-up
	d.free = append(d.free, dc)
}

// Step advances one slot. arrivals[i] is the new cell at input i (nil
// for none); an arrival whose input is occupied by a re-entering cell
// is refused — the source must retry later, which is the
// injection-throughput limit of the architecture.
//
//osmosis:hotpath
func (d *Deflect) Step(arrivals []*packet.Cell) {
	idx := int(d.slot % uint64(len(d.loop)))
	// Re-entering cells claim their input ports first.
	occupied := d.occupied
	clear(occupied)
	overflow := d.overflow[:0]
	for _, dc := range d.loop[idx] {
		in := (dc.c.Src + dc.bounces) % d.n
		if occupied[in] == nil {
			occupied[in] = dc
		} else {
			// Port already claimed this slot: circulate one more turn
			// (not counted as a deflection; it is loop congestion).
			//lint:ignore hotpath append into a retained overflow slice pre-sized to N; cap-stable, amortized alloc-free
			overflow = append(overflow, dc)
		}
	}
	d.overflow = overflow
	d.loop[idx] = d.loop[idx][:0]
	land := (idx + d.LoopSlots) % len(d.loop)
	//lint:ignore hotpath append into a retained recirculation batch; cap-stable after warm-up
	d.loop[land] = append(d.loop[land], overflow...)

	for in, c := range arrivals {
		if c == nil {
			continue
		}
		if occupied[in] != nil {
			continue
		}
		occupied[in] = d.get(c, d.slot)
	}

	// Contention per output; the winner is positional (no age priority,
	// exactly why deflection reorders flows).
	contenders := d.contenders
	for i := range contenders {
		contenders[i] = contenders[i][:0]
	}
	for _, dc := range occupied {
		if dc != nil {
			//lint:ignore hotpath append into a retained per-output contender row; rows are length-reset and cap-stable after warm-up
			contenders[dc.c.Dst] = append(contenders[dc.c.Dst], dc)
		}
	}
	for _, cs := range contenders {
		if len(cs) == 0 {
			continue
		}
		win := d.rng.Intn(len(cs))
		if d.Sink != nil {
			d.Sink(cs[win].c, d.slot-cs[win].arrived+1)
		}
		d.put(cs[win])
		for i, dc := range cs {
			if i == win {
				continue
			}
			dc.bounces++
			//lint:ignore hotpath append into a retained recirculation batch; cap-stable after warm-up
			d.loop[land] = append(d.loop[land], dc)
		}
	}
	d.slot++
}
