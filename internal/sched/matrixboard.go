package sched

// MatrixBoard is a self-contained Board over a dense n×n demand matrix:
// queued and committed cell counts per (input, output) pair, with the
// positive-demand bit rows and columns updated on every change, the way
// the switch engines maintain theirs. It drives a scheduler without a
// switch around it: the management arbiter self-test, and this
// package's tests and benchmarks.
type MatrixBoard struct {
	n, words int
	// recv[out] is ReceiversAt(out): the board's receiver count unless a
	// test lowers it to model a receiver fault.
	recv []int
	// queued and committed are indexed in*n + out.
	queued, committed []int
	// rowBits[in*words .. +words) has bit out set, and colBits[out*words
	// .. +words) bit in set, iff Demand(in, out) > 0.
	rowBits, colBits []uint64
}

// NewMatrixBoard returns an empty n-port board with r receivers per
// output.
func NewMatrixBoard(n, r int) *MatrixBoard {
	w := bitWords(n)
	b := &MatrixBoard{
		n: n, words: w,
		recv:      make([]int, n),
		queued:    make([]int, n*n),
		committed: make([]int, n*n),
		rowBits:   make([]uint64, n*w),
		colBits:   make([]uint64, n*w),
	}
	for out := range b.recv {
		b.recv[out] = r
	}
	return b
}

// ReceiversAt implements Board.
func (b *MatrixBoard) ReceiversAt(out int) int { return b.recv[out] }

// Demand implements Board: queued minus committed cells, clamped at 0.
func (b *MatrixBoard) Demand(in, out int) int {
	return max(b.queued[in*b.n+out]-b.committed[in*b.n+out], 0)
}

// DemandRowBits implements Board.
func (b *MatrixBoard) DemandRowBits(in int, row []uint64) {
	copy(row, b.rowBits[in*b.words:(in+1)*b.words])
}

// DemandColBits implements Board.
func (b *MatrixBoard) DemandColBits(out int, col []uint64) {
	copy(col, b.colBits[out*b.words:(out+1)*b.words])
}

// Commit implements Board.
func (b *MatrixBoard) Commit(in, out int) {
	b.committed[in*b.n+out]++
	b.sync(in, out)
}

// Queued reports the cells waiting at VOQ(in, out), committed or not.
func (b *MatrixBoard) Queued(in, out int) int { return b.queued[in*b.n+out] }

// Add enqueues k cells at VOQ(in, out).
func (b *MatrixBoard) Add(in, out, k int) {
	b.queued[in*b.n+out] += k
	b.sync(in, out)
}

// Take retires one granted cell of VOQ(in, out), burning its
// reservation if one is outstanding.
func (b *MatrixBoard) Take(in, out int) {
	i := in*b.n + out
	if b.queued[i] > 0 {
		b.queued[i]--
	}
	if b.committed[i] > 0 {
		b.committed[i]--
	}
	b.sync(in, out)
}

// Execute retires one cell for every matched edge of m.
func (b *MatrixBoard) Execute(m Matching) {
	for in, out := range m.Out {
		if out >= 0 {
			b.Take(in, out)
		}
	}
}

// sync re-derives the (in, out) demand bit in both orientations.
func (b *MatrixBoard) sync(in, out int) {
	r, rbit := in*b.words+out>>6, uint64(1)<<(uint(out)&63)
	c, cbit := out*b.words+in>>6, uint64(1)<<(uint(in)&63)
	if b.queued[in*b.n+out] > b.committed[in*b.n+out] {
		b.rowBits[r] |= rbit
		b.colBits[c] |= cbit
	} else {
		b.rowBits[r] &^= rbit
		b.colBits[c] &^= cbit
	}
}
