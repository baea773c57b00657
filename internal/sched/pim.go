package sched

import "repro/internal/sim"

// PIM (Parallel Iterative Matching, Anderson et al.) is the randomized
// ancestor of iSLIP: outputs grant a uniformly random requesting input,
// inputs accept a uniformly random grant. Its matching quality converges
// in about log2 N iterations but it cannot desynchronize, so it saturates
// near 63% with a single iteration. Included as a scheduler baseline.
//
// The requester discovery runs on the bits.go demand snapshot; the
// random grant/accept draws consume the RNG in exactly the order of the
// pre-rewrite implementation, so matchings are bit-identical to it
// (pinned by the equivalence suite in reference_test.go).
type PIM struct {
	n, iters int
	rng      *sim.RNG

	sc *arbScratch
	// grants[in] lists outputs granting to in this iteration; the rows
	// are retained and re-sliced to length zero every iteration.
	grants [][]int
	// requesters/avail are the random-draw pools, retained across calls.
	requesters []int
	avail      []int
}

// NewPIM returns an n-port PIM arbiter with the given iteration count
// (<= 0 selects log2 n) and RNG seed.
func NewPIM(n, iters int, seed uint64) *PIM {
	if iters <= 0 {
		iters = Log2Ceil(n)
	}
	p := &PIM{
		n: n, iters: iters, rng: sim.NewRNG(seed),
		sc:         newArbScratch(n),
		grants:     make([][]int, n),
		requesters: make([]int, 0, n),
		avail:      make([]int, 0, n),
	}
	return p
}

// Name implements Scheduler.
func (p *PIM) Name() string { return "pim" }

// GrantLatency implements Scheduler.
func (p *PIM) GrantLatency() int { return 1 }

// TickInto implements Scheduler.
//
//osmosis:hotpath
//osmosis:shardsafe
func (p *PIM) TickInto(_ uint64, b Board, m *Matching) {
	n := p.n
	m.ensure(n)
	m.Reset()
	p.sc.snapshot(b)
	st, cand := p.sc.fresh(), p.sc.cand
	for it := 0; it < p.iters; it++ {
		// Grant: each output with live capacity picks random requesters.
		for i := range p.grants {
			p.grants[i] = p.grants[i][:0]
		}
		granted := false
		for out := 0; out < n; out++ {
			capacity := p.sc.outCap[out] - st.outLoad[out]
			if capacity <= 0 {
				continue
			}
			requesters := p.requesters[:0]
			col := p.sc.row(p.sc.reqCol, out)
			for w := range cand {
				cand[w] = col[w] & st.unmatched[w]
			}
			for in := nextSetBit(cand, n, 0); in >= 0; in = nextSetBit(cand, n, in+1) {
				//lint:ignore hotpath append into a retained scratch slice pre-sized to N; cap-stable, amortized alloc-free
				requesters = append(requesters, in)
			}
			for c := 0; c < capacity && len(requesters) > 0; c++ {
				k := p.rng.Intn(len(requesters))
				in := requesters[k]
				//lint:ignore hotpath in-place element removal on the retained scratch slice; never grows
				requesters = append(requesters[:k], requesters[k+1:]...)
				//lint:ignore hotpath append into a retained per-input grant row; rows are length-reset and cap-stable after warm-up
				p.grants[in] = append(p.grants[in], out)
				granted = true
			}
		}
		if !granted {
			break
		}
		// Accept: each input picks a random grant.
		accepted := false
		for in := 0; in < n; in++ {
			gs := p.grants[in]
			if len(gs) == 0 || m.Out[in] >= 0 {
				continue
			}
			// Filter grants whose output filled up this iteration.
			avail := p.avail[:0]
			for _, out := range gs {
				if st.outLoad[out] < p.sc.outCap[out] {
					//lint:ignore hotpath append into a retained scratch slice pre-sized to N; cap-stable, amortized alloc-free
					avail = append(avail, out)
				}
			}
			if len(avail) == 0 {
				continue
			}
			out := avail[p.rng.Intn(len(avail))]
			m.Out[in] = out
			clearBit(st.unmatched, in)
			st.outLoad[out]++
			accepted = true
		}
		if !accepted {
			break
		}
	}
}

// SelfCommits implements Scheduler.
func (p *PIM) SelfCommits() bool { return false }

// SkipIdle implements IdleSkipper: with zero demand no output has any
// requester, so the grant phase draws nothing from the RNG and breaks
// out of the iteration loop immediately — an idle tick consumes no
// randomness and writes no state.
//
//osmosis:hotpath
//osmosis:shardsafe
func (p *PIM) SkipIdle(uint64) {}
