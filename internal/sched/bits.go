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
	// hasGrant has bit in set while input in holds unprocessed grants.
	hasGrant []uint64
	// cand is the per-output grant-scan scratch row (inputs).
	cand []uint64
	// want has bit out set iff some unmatched input requests out: the OR
	// of the unmatched inputs' reqRow rows, rebuilt every iteration so
	// the grant phase visits only outputs that have a requester.
	want []uint64
	// outCap[out] is ReceiversAt(out), read once per tick by snapshot.
	outCap []int
	// matched[:k] lists the inputs the last iterate call newly matched,
	// in acceptance order, where k is that call's return value.
	matched []int
	// st is the matchState of a matching built from empty within one
	// tick (see fresh).
	st matchState
}

// matchState is what iterate reads of a partial matching besides its
// Out row, kept in step with that row across calls so that no call
// re-derives it.
type matchState struct {
	// unmatched has bit in set while input in is unmatched.
	unmatched []uint64
	// outLoad[out] counts inputs matched to out.
	outLoad []int
}

// newMatchState returns the state of an empty n-port matching.
func newMatchState(n int) matchState {
	s := matchState{unmatched: make([]uint64, bitWords(n)), outLoad: make([]int, n)}
	s.reset()
	return s
}

// reset returns the state to that of an empty matching (Matching.Reset).
func (s *matchState) reset() {
	for w := range s.unmatched {
		s.unmatched[w] = ^uint64(0)
	}
	// Keep the bits past input n-1 clear (len(outLoad) is n).
	if r := len(s.outLoad) & 63; r != 0 {
		s.unmatched[len(s.unmatched)-1] = 1<<uint(r) - 1
	}
	clear(s.outLoad)
}

// derive rebuilds the state from a matching's Out row.
func (s *matchState) derive(out []int) {
	clearRow(s.unmatched)
	clear(s.outLoad)
	for in, o := range out {
		if o >= 0 {
			s.outLoad[o]++
		} else {
			setBit(s.unmatched, in)
		}
	}
}

// newArbScratch allocates the scratch for an n-port arbiter.
func newArbScratch(n int) *arbScratch {
	w := bitWords(n)
	return &arbScratch{
		n: n, words: w,
		reqRow:   make([]uint64, n*w),
		reqCol:   make([]uint64, n*w),
		grant:    make([]uint64, n*w),
		hasGrant: make([]uint64, w),
		cand:     make([]uint64, w),
		want:     make([]uint64, w),
		outCap:   make([]int, n),
		matched:  make([]int, n),
		st:       newMatchState(n),
	}
}

// fresh resets and returns the scratch's own matchState, for a caller
// whose matching starts the tick empty.
func (sc *arbScratch) fresh() *matchState {
	sc.st.reset()
	return &sc.st
}

// row returns the words of row i in an n×words flat matrix.
func (sc *arbScratch) row(matrix []uint64, i int) []uint64 {
	return matrix[i*sc.words : (i+1)*sc.words]
}

// snapshot captures the board's uncommitted-demand matrix into
// reqRow/reqCol, one row copy per input and one column copy per output,
// and every output's receiver count into outCap. The snapshot stays
// valid for the rest of the TickInto as long as every demand change goes
// through patch (schedulers only reduce demand mid-tick, via
// Board.Commit); receiver counts change only between ticks.
//
//osmosis:hotpath
func (sc *arbScratch) snapshot(b Board) {
	for in := 0; in < sc.n; in++ {
		b.DemandRowBits(in, sc.row(sc.reqRow, in))
	}
	for out := 0; out < sc.n; out++ {
		b.DemandColBits(out, sc.row(sc.reqCol, out))
		sc.outCap[out] = b.ReceiversAt(out)
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
// matching m, against the request snapshot and receiver counts that
// snapshot holds. st must agree with m.Out on entry, and iterate keeps
// it so. It reproduces the reference iSLIP protocol bit-for-bit (the
// retained reference implementation in reference_test.go pins the
// equivalence):
//
//   - grant phase: each output with spare receiver capacity grants up
//     to that capacity among the unmatched requesting inputs, scanning
//     round-robin from its grant pointer; outputs are visited in
//     ascending order, and only those in want, since an output no
//     unmatched input requests has nothing to grant;
//   - accept phase: each granted input accepts the granting output
//     closest in round-robin order from its accept pointer, skipping
//     outputs that filled up;
//   - pointers advance one past the match for first-iteration accepts
//     only (the desynchronization rule).
//
// It returns the number k of newly matched inputs and lists them in
// matched[:k].
//
//osmosis:hotpath
func (sc *arbScratch) iterate(m *Matching, st *matchState, grantPtr, acceptPtr []int, iters int) int {
	n := sc.n
	unmatched, outLoad := st.unmatched, st.outLoad
	added := 0
	for it := 0; it < iters; it++ {
		// Grant phase.
		clearRow(sc.want)
		for w, u := range unmatched {
			for ; u != 0; u &= u - 1 {
				row := sc.row(sc.reqRow, w<<6+bits.TrailingZeros64(u))
				for x := range sc.want {
					sc.want[x] |= row[x]
				}
			}
		}
		clearRow(sc.hasGrant)
		granted := false
		for out := nextSetBit(sc.want, n, 0); out >= 0; out = nextSetBit(sc.want, n, out+1) {
			capacity := sc.outCap[out] - outLoad[out]
			if capacity <= 0 {
				continue
			}
			col := sc.row(sc.reqCol, out)
			for w := range sc.cand {
				sc.cand[w] = col[w] & unmatched[w]
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
			if best < 0 || outLoad[best] >= sc.outCap[best] {
				continue
			}
			m.Out[in] = best
			clearBit(unmatched, in)
			outLoad[best]++
			sc.matched[added] = in
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
