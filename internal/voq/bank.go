package voq

import (
	"repro/internal/bitrow"
	"repro/internal/ckpt"
	"repro/internal/packet"
)

// Bank is the ingress half of one N×N switch core — a VOQ set per input
// — plus the state derived from it that the arbiter and the run loop
// read every slot. The single-stage crossbar and every fabric switch
// build on it. The mutators keep the derived state exact in O(1):
//   - col[out*words .. +words) is the transpose of the sets'
//     uncommitted-occupancy rows (bit in set iff Demand(in, out) > 0);
//   - hist[d] counts inputs whose VOQ set holds d cells, and maxDepth
//     is its largest non-empty bucket;
//   - resident counts the cells queued across the bank.
//
// Derived state is never serialized: LoadState rebuilds it.
type Bank struct {
	n, words int
	sets     []VOQSet
	col      []uint64
	hist     []int
	maxDepth int
	resident int
}

// NewBank builds an empty bank for an n-port switch.
func NewBank(n int) *Bank {
	b := &Bank{
		n:     n,
		words: bitrow.Words(n),
		sets:  make([]VOQSet, n),
		hist:  make([]int, 1, 16),
	}
	for in := range b.sets {
		b.sets[in] = *NewVOQSet(n)
	}
	b.col = make([]uint64, n*b.words)
	b.hist[0] = n
	return b
}

// sync re-derives the column bit of one (in, out) pair from the row
// bit; every mutator of sets[in] affecting out calls it, so col stays
// exactly the transpose of the rows.
//
//osmosis:hotpath
//osmosis:shardsafe
func (b *Bank) sync(in, out int) {
	w, m := out*b.words+in>>6, uint64(1)<<(uint(in)&63)
	if b.sets[in].UncommittedAt(out) {
		b.col[w] |= m
	} else {
		b.col[w] &^= m
	}
}

// Push enqueues a cell arriving on input in toward output out.
//
//osmosis:shardsafe
func (b *Bank) Push(in int, c *packet.Cell, out int) {
	s := &b.sets[in]
	s.Push(c, out)
	b.resident++
	d := s.Depth()
	b.hist[d-1]--
	if d == len(b.hist) {
		//lint:ignore hotpath grows only when a never-before-seen max depth is reached; cap-stable in steady state
		b.hist = append(b.hist, 0)
	}
	b.hist[d]++
	if d > b.maxDepth {
		b.maxDepth = d
	}
	b.sync(in, out)
}

// Pop dequeues the next cell input in holds for out (control class
// first), releasing one commitment if any; nil when the VOQ is empty.
//
//osmosis:hotpath
//osmosis:shardsafe
func (b *Bank) Pop(in, out int) *packet.Cell {
	s := &b.sets[in]
	c := s.Pop(out)
	if c == nil {
		return nil
	}
	b.resident--
	d := s.Depth()
	b.hist[d+1]--
	b.hist[d]++
	if d+1 == b.maxDepth && b.hist[d+1] == 0 {
		b.maxDepth--
	}
	b.sync(in, out)
	return c
}

// Demand reports the cells input in holds for out that no in-flight
// matching has been promised yet.
func (b *Bank) Demand(in, out int) int { return b.sets[in].Uncommitted(out) }

// Commit records that one more of input in's cells for out has been
// promised a grant.
//
//osmosis:hotpath
//osmosis:shardsafe
func (b *Bank) Commit(in, out int) {
	b.sets[in].Commit(out)
	b.sync(in, out)
}

// Uncommit releases a promise made by Commit.
//
//osmosis:hotpath
//osmosis:shardsafe
func (b *Bank) Uncommit(in, out int) {
	b.sets[in].Uncommit(out)
	b.sync(in, out)
}

// Row exposes input in's live demand row (bit out set iff
// Demand(in, out) > 0). Callers may read or AND-copy the words but must
// never write them.
func (b *Bank) Row(in int) []uint64 { return b.sets[in].UncommittedBits() }

// DemandRowBits copies input in's demand row into row.
//
//osmosis:hotpath
//osmosis:shardsafe
func (b *Bank) DemandRowBits(in int, row []uint64) { copy(row, b.Row(in)) }

// DemandColBits copies output out's demand column (bit in set iff
// Demand(in, out) > 0) into col.
//
//osmosis:hotpath
//osmosis:shardsafe
func (b *Bank) DemandColBits(out int, col []uint64) {
	copy(col, b.col[out*b.words:(out+1)*b.words])
}

// Depth reports the cells queued at input in.
func (b *Bank) Depth(in int) int { return b.sets[in].Depth() }

// MaxDepth reports the deepest VOQ set's current cell count.
func (b *Bank) MaxDepth() int { return b.maxDepth }

// Resident reports the cells queued across the bank.
func (b *Bank) Resident() int { return b.resident }

// SaveState serializes every input's VOQ set in input order.
func (b *Bank) SaveState(e *ckpt.Encoder) {
	for in := range b.sets {
		b.sets[in].SaveState(e)
	}
}

// LoadState restores the VOQ sets saved by SaveState into b, which must
// be freshly constructed (empty) with the same port count, then
// rebuilds the derived state from them. Queued cells must travel
// between ports of the engine, in [0, ports).
func (b *Bank) LoadState(d *ckpt.Decoder, ports int) {
	for in := range b.sets {
		b.sets[in].LoadState(d, ports)
	}
	b.resident, b.maxDepth = 0, 0
	b.hist = b.hist[:0]
	bitrow.ZeroAll(b.col)
	for in := range b.sets {
		d := b.sets[in].Depth()
		b.resident += d
		for len(b.hist) <= d {
			b.hist = append(b.hist, 0)
		}
		b.hist[d]++
		b.maxDepth = max(b.maxDepth, d)
		row := b.Row(in)
		for out := bitrow.NextSet(row, b.n, 0); out >= 0; out = bitrow.NextSet(row, b.n, out+1) {
			bitrow.Set(b.col[out*b.words:(out+1)*b.words], in)
		}
	}
}
