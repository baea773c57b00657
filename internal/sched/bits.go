package sched

import "math/bits"

// This file holds the allocation-free bitset core the round-robin
// arbiters run on. A request/grant/match set over the N ports is a row
// of ceil(N/64) uint64 words ("bitrow"); for the demonstrator's N=64
// that is a single machine word, so a whole request column fits in one
// register and the round-robin scans of the grant and accept phases
// become a handful of mask-and-count-trailing-zeros instructions
// instead of an O(N) pointer-chasing loop of interface calls.
//
// All scratch state lives in a per-arbiter arbScratch that is allocated
// once at construction and reused every cycle: the steady-state TickInto
// of every scheduler in this package performs zero heap allocations (the
// contract is machine-checked by the osmosislint hotpath analyzer and
// pinned by testing.AllocsPerRun regression tests).

// bitWords reports the uint64 words needed for an n-bit row.
func bitWords(n int) int { return (n + 63) / 64 }

// setBit sets bit i of the row.
func setBit(row []uint64, i int) { row[i>>6] |= 1 << (uint(i) & 63) }

// clearBit clears bit i of the row.
func clearBit(row []uint64, i int) { row[i>>6] &^= 1 << (uint(i) & 63) }

// clearRow zeroes the row in place.
func clearRow(row []uint64) {
	for i := range row {
		row[i] = 0
	}
}

// nextSetBit returns the index of the first set bit in [start, limit),
// or -1 when none is set there. Words past the limit must be zero above
// the limit only if limit is not a multiple of 64 and the caller relies
// on it; all rows in this package keep their tail bits zero.
func nextSetBit(row []uint64, limit, start int) int {
	if start >= limit {
		return -1
	}
	w := start >> 6
	word := row[w] &^ ((1 << (uint(start) & 63)) - 1)
	for {
		if word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			if i >= limit {
				return -1
			}
			return i
		}
		w++
		if w >= len(row) || w<<6 >= limit {
			return -1
		}
		word = row[w]
	}
}

// nextSetBitWrap returns the first set bit at or after start in the
// n-bit row, wrapping to bit 0 when nothing at or after start is set —
// the round-robin pointer scan. It returns -1 for an empty row.
func nextSetBitWrap(row []uint64, n, start int) int {
	if i := nextSetBit(row, n, start); i >= 0 {
		return i
	}
	if start <= 0 {
		return -1
	}
	return nextSetBit(row, start, 0)
}

// arbScratch is the preallocated working state of one round-robin
// arbiter instance. One scratch serves any number of iterate calls; it
// is never shared between scheduler instances (schedulers are
// single-goroutine by contract, like the rest of the simulator).
type arbScratch struct {
	n, words int
	// reqRow[in*words .. +words): bit out set iff (in, out) has
	// positive uncommitted demand in the current snapshot.
	reqRow []uint64
	// reqCol[out*words .. +words): the same matrix, transposed.
	reqCol []uint64
	// grant[in*words .. +words): outputs granting to input in during
	// the current iteration.
	grant []uint64
	// unmatched has bit in set while input in is unmatched in m.
	unmatched []uint64
	// hasGrant has bit in set while input in holds unprocessed grants.
	hasGrant []uint64
	// cand is the per-output grant-scan scratch row (inputs).
	cand []uint64
	// outLoad[out] counts inputs matched to out; outCap[out] snapshots
	// ReceiversAt(out) for the current iterate call.
	outLoad []int
	outCap  []int
}

// newArbScratch allocates the scratch for an n-port arbiter.
func newArbScratch(n int) *arbScratch {
	w := bitWords(n)
	return &arbScratch{
		n: n, words: w,
		reqRow:    make([]uint64, n*w),
		reqCol:    make([]uint64, n*w),
		grant:     make([]uint64, n*w),
		unmatched: make([]uint64, w),
		hasGrant:  make([]uint64, w),
		cand:      make([]uint64, w),
		outLoad:   make([]int, n),
		outCap:    make([]int, n),
	}
}

// row returns the words of row i in an n×words flat matrix.
func (sc *arbScratch) row(matrix []uint64, i int) []uint64 {
	return matrix[i*sc.words : (i+1)*sc.words]
}

// snapshot captures the board's uncommitted-demand matrix into
// reqRow/reqCol, one row copy per input and one column copy per output.
// The snapshot stays valid for the rest of the TickInto as long as every
// demand change goes through patch (schedulers only reduce demand
// mid-tick, via Board.Commit).
//
//osmosis:hotpath
func (sc *arbScratch) snapshot(b Board) {
	for in := 0; in < sc.n; in++ {
		b.DemandRowBits(in, sc.row(sc.reqRow, in))
	}
	for out := 0; out < sc.n; out++ {
		b.DemandColBits(out, sc.row(sc.reqCol, out))
	}
}

// patch re-checks one (in, out) pair against the board after a commit
// and clears its request bits once the uncommitted demand hits zero,
// keeping the snapshot exact without a full rebuild.
//
//osmosis:hotpath
func (sc *arbScratch) patch(b Board, in, out int) {
	if b.Demand(in, out) <= 0 {
		clearBit(sc.row(sc.reqRow, in), out)
		clearBit(sc.row(sc.reqCol, out), in)
	}
}

// iterate runs up to iters iterations of the round-robin request/
// grant/accept protocol on the (possibly pre-populated) partial
// matching m, against the request snapshot currently held in
// reqRow/reqCol. It reproduces the reference iSLIP protocol
// bit-for-bit (the retained reference implementation in
// reference_test.go pins the equivalence):
//
//   - grant phase: each output with spare receiver capacity grants up
//     to that capacity among the unmatched requesting inputs, scanning
//     round-robin from its grant pointer;
//   - accept phase: each granted input accepts the granting output
//     closest in round-robin order from its accept pointer, skipping
//     outputs that filled up;
//   - pointers advance one past the match for first-iteration accepts
//     only (the desynchronization rule).
//
// It returns the number of newly matched inputs.
//
//osmosis:hotpath
func (sc *arbScratch) iterate(b Board, m *Matching, grantPtr, acceptPtr []int, iters int) int {
	n := sc.n
	clearRow(sc.unmatched)
	for i := range sc.outLoad {
		sc.outLoad[i] = 0
		sc.outCap[i] = b.ReceiversAt(i)
	}
	for in, out := range m.Out {
		if out >= 0 {
			sc.outLoad[out]++
		} else {
			setBit(sc.unmatched, in)
		}
	}
	added := 0
	for it := 0; it < iters; it++ {
		// Grant phase.
		clearRow(sc.hasGrant)
		granted := false
		for out := 0; out < n; out++ {
			capacity := sc.outCap[out] - sc.outLoad[out]
			if capacity <= 0 {
				continue
			}
			col := sc.row(sc.reqCol, out)
			empty := true
			for w := range sc.cand {
				sc.cand[w] = col[w] & sc.unmatched[w]
				if sc.cand[w] != 0 {
					empty = false
				}
			}
			if empty {
				continue
			}
			start := grantPtr[out]
			for ; capacity > 0; capacity-- {
				in := nextSetBitWrap(sc.cand, n, start)
				if in < 0 {
					break
				}
				clearBit(sc.cand, in)
				setBit(sc.row(sc.grant, in), out)
				setBit(sc.hasGrant, in)
				granted = true
			}
		}
		if !granted {
			break
		}
		// Accept phase: granted inputs in ascending index order.
		accepted := false
		for in := nextSetBit(sc.hasGrant, n, 0); in >= 0; in = nextSetBit(sc.hasGrant, n, in+1) {
			row := sc.row(sc.grant, in)
			best := nextSetBitWrap(row, n, acceptPtr[in])
			clearRow(row)
			if best < 0 || sc.outLoad[best] >= sc.outCap[best] {
				continue
			}
			m.Out[in] = best
			clearBit(sc.unmatched, in)
			sc.outLoad[best]++
			added++
			accepted = true
			// iSLIP pointer rule: update on first-iteration accepts only.
			if it == 0 {
				grantPtr[best] = (in + 1) % n
				acceptPtr[in] = (best + 1) % n
			}
		}
		if !accepted {
			break
		}
	}
	return added
}
