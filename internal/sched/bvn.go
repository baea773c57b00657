package sched

// Load-balanced Birkhoff-von Neumann switch (§VI.D, ref [24]): a
// space-time-space architecture with *distributed* scheduling. Stage 1
// applies a deterministic round-robin permutation that sprays arriving
// cells over the N intermediate ports regardless of destination,
// shaping any admissible traffic into uniform traffic; the intermediate
// ports hold the buffers; stage 2 applies the complementary round-robin
// permutation connecting each intermediate port to each output once
// every N slots.
//
// The paper dismisses it for HPC because an unloaded N-port switch still
// exhibits ~N/2 average latency (a cell must wait for the round-robin
// connection from its intermediate port to its output) and because
// spraying over intermediate ports reorders cells of the same flow. The
// model below is a slot-accurate simulation that reproduces both
// properties for experiment E13.

import "repro/internal/packet"

// BvN simulates an N-port load-balanced Birkhoff-von Neumann switch.
type BvN struct {
	n int
	// mid[j][d] holds cells buffered at intermediate port j for output d.
	mid [][]bvnFIFO
	// slot counts switching cycles since start.
	slot uint64
	// delivered cells are handed to the sink callback with their
	// latency in slots.
	Sink func(c *packet.Cell, latencySlots uint64)
}

type bvnFIFO struct {
	cells []bvnCell
}

type bvnCell struct {
	c       *packet.Cell
	arrived uint64
}

// NewBvN returns an n-port load-balanced BvN switch.
func NewBvN(n int) *BvN {
	b := &BvN{n: n}
	b.mid = make([][]bvnFIFO, n)
	for j := range b.mid {
		b.mid[j] = make([]bvnFIFO, n)
	}
	return b
}

// Step advances one switching cycle. arrivals[i] is the cell arriving at
// input i this cycle (nil for none). Stage 1 connects input i to
// intermediate port (i + slot) mod N; stage 2 connects intermediate port
// j to output (j + slot) mod N.
func (b *BvN) Step(arrivals []*packet.Cell) {
	t := b.slot
	n := uint64(b.n)
	// Stage 2 first: deliver from intermediate buffers using this slot's
	// permutation, before new arrivals land (arrivals traverse stage 1
	// and are buffered; they can be delivered in a later slot at the
	// earliest, matching the store in the middle stage).
	for j := 0; j < b.n; j++ {
		out := int((uint64(j) + t) % n)
		q := &b.mid[j][out]
		if len(q.cells) == 0 {
			continue
		}
		bc := q.cells[0]
		q.cells = q.cells[1:]
		if b.Sink != nil {
			b.Sink(bc.c, t-bc.arrived)
		}
	}
	// Stage 1: spray arrivals over intermediate ports round-robin.
	for i, c := range arrivals {
		if c == nil {
			continue
		}
		j := int((uint64(i) + t) % n)
		q := &b.mid[j][c.Dst]
		q.cells = append(q.cells, bvnCell{c: c, arrived: t})
	}
	b.slot++
}
