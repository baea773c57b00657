package sched

// FLPPR (Fast Low-latency Parallel Pipelined aRbitration, ref [22]) is
// the OSMOSIS scheduler novelty. Like the pipelined prior art it spreads
// the log2 N iterations a high-quality matching needs over multiple
// packet cycles, with K parallel sub-schedulers so that one matching
// still completes every cycle. Unlike the prior art, a sub-scheduler's
// in-flight matching keeps accepting *new* requests in every remaining
// iteration — so under light load a request arriving one cycle before
// some matching completes is injected into that matching's final
// iteration and granted a single cycle after the request (Fig. 6),
// instead of waiting for a whole fresh pipeline pass.
//
// Model: K partial matchings are in flight, completing 0..K-1 cycles
// from now. Every cycle, each receives one iteration of round-robin
// request/grant/accept over the current uncommitted VOQ demand, earliest-
// completing matching first (that ordering is what minimizes request-to-
// grant time). Edges are committed on the Board immediately. Each of
// the K sub-schedulers keeps its own desynchronizing pointer pair.
//
// The K in-flight matchings live in a fixed ring and the demand
// snapshot is taken once per cycle, patched as edges commit, so the
// steady-state tick allocates nothing.
type FLPPR struct {
	n, k int
	// Per-sub-scheduler iSLIP pointer state; sub-scheduler s owns the
	// matchings completing at slots congruent to s mod k.
	grantPtr  [][]int
	acceptPtr [][]int
	// pend is a ring of the k in-flight partial matchings; the matching
	// completing j cycles from now is pend[(head+j) % k], and
	// pend[j].sub selects the pointer pair.
	pend []flpprPartial
	head int
	sc   *arbScratch
}

type flpprPartial struct {
	m   Matching
	st  matchState
	sub int
}

// NewFLPPR returns an n-port FLPPR arbiter with k parallel
// sub-schedulers (<= 0 selects log2 n, giving every matching the full
// iteration budget the paper cites for good utilization).
func NewFLPPR(n, k int) *FLPPR {
	if k <= 0 {
		k = Log2Ceil(n)
	}
	f := &FLPPR{n: n, k: k}
	f.grantPtr = make([][]int, k)
	f.acceptPtr = make([][]int, k)
	for s := 0; s < k; s++ {
		f.grantPtr[s] = make([]int, n)
		f.acceptPtr[s] = make([]int, n)
	}
	f.pend = make([]flpprPartial, k)
	for j := range f.pend {
		f.pend[j] = flpprPartial{m: NewMatching(n), st: newMatchState(n), sub: j % k}
	}
	f.sc = newArbScratch(n)
	return f
}

// Name implements Scheduler.
func (f *FLPPR) Name() string { return "flppr" }

// GrantLatency implements Scheduler: at light load a request joins the
// next-completing matching and is granted one cycle later.
func (f *FLPPR) GrantLatency() int { return 1 }

// TickInto implements Scheduler: one iteration of work on every
// in-flight matching, earliest-completing first so new requests land in
// the soonest grant. The request snapshot is taken once and patched as
// edges commit, which keeps it exactly equal to the live board demand;
// only the edges an iteration newly matched are committed and patched.
//
//osmosis:hotpath
//osmosis:shardsafe
func (f *FLPPR) TickInto(slot uint64, b Board, m *Matching) {
	f.sc.snapshot(b)
	for j := 0; j < f.k; j++ {
		p := &f.pend[(f.head+j)%f.k]
		added := f.sc.iterate(&p.m, &p.st, f.grantPtr[p.sub], f.acceptPtr[p.sub], 1)
		for _, in := range f.sc.matched[:added] {
			out := p.m.Out[in]
			b.Commit(in, out)
			f.sc.patch(b, in, out)
		}
	}
	issued := &f.pend[f.head]
	m.ensure(f.n)
	copy(m.Out, issued.m.Out)
	// The issued slot becomes the new farthest-out partial matching.
	issued.m.Reset()
	issued.st.reset()
	issued.sub = int(slot % uint64(f.k))
	f.head = (f.head + 1) % f.k
}

// SelfCommits implements Scheduler: TickInto commits every promised edge.
func (f *FLPPR) SelfCommits() bool { return true }

// SkipIdle implements IdleSkipper. An idle TickInto iterates every
// partial matching against an all-zero snapshot (no grants, no commits,
// no pointer movement), resets the issued slot — already empty on an
// idle node — and reassigns its sub to slot%k before advancing head.
// Because the fabric ticks or skips a node's scheduler at every slot
// exactly once from slot 0, a position is re-issued exactly k ticks
// after its last issue, so the sub it would be assigned equals the sub
// it already carries (slot ≡ last-issue slot mod k) and the write is a
// no-op. The only surviving mutation is the head rotation, applied here
// in one step.
//
//osmosis:hotpath
//osmosis:shardsafe
func (f *FLPPR) SkipIdle(n uint64) {
	f.head = int((uint64(f.head) + n) % uint64(f.k))
}
