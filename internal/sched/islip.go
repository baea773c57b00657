package sched

// iSLIP (McKeown): iterative round-robin matching with pointer
// desynchronization. Outputs grant in round-robin order among
// requesting inputs; inputs accept in round-robin order among granting
// outputs; pointers advance only when a grant made in the first
// iteration is accepted, which desynchronizes the pointers and yields
// 100% throughput under uniform traffic.
//
// The combinational form below performs all iterations inside one packet
// cycle — the behaviour of an ASIC arbiter with enough speed, and the
// matching-quality reference. The pipelined prior-art form (one
// iteration per FPGA cycle, matchings delivered log2N cycles after the
// request) lives in pipelined.go.
//
// The protocol runs on the preallocated bitset core in bits.go; the
// pre-rewrite slice-of-slices implementation is retained in
// reference_test.go and the equivalence suite proves the two produce
// bit-identical matchings.

// ISLIP is a combinational multi-iteration iSLIP arbiter.
type ISLIP struct {
	n, iters int
	// grantPtr[out] is the output's round-robin grant pointer; for dual
	// receivers it is shared across the output's receiver slots.
	grantPtr []int
	// acceptPtr[in] is the input's round-robin accept pointer.
	acceptPtr []int
	sc        *arbScratch
}

// NewISLIP returns an n-port iSLIP arbiter running iters iterations per
// cycle. iters <= 0 selects the paper's log2(n) default.
func NewISLIP(n, iters int) *ISLIP {
	if iters <= 0 {
		iters = Log2Ceil(n)
	}
	s := &ISLIP{
		n: n, iters: iters,
		grantPtr:  make([]int, n),
		acceptPtr: make([]int, n),
		sc:        newArbScratch(n),
	}
	return s
}

// Name implements Scheduler.
func (s *ISLIP) Name() string { return "islip" }

// GrantLatency implements Scheduler: a combinational arbiter grants in
// the same cycle the request is made.
func (s *ISLIP) GrantLatency() int { return 1 }

// TickInto implements Scheduler.
//
//osmosis:hotpath
//osmosis:shardsafe
func (s *ISLIP) TickInto(_ uint64, b Board, m *Matching) {
	m.ensure(s.n)
	m.Reset()
	s.sc.snapshot(b)
	s.sc.iterate(m, s.sc.fresh(), s.grantPtr, s.acceptPtr, s.iters)
}

// SelfCommits implements Scheduler: the combinational arbiter's grants
// execute in the same cycle, so no reservation bookkeeping is needed.
func (s *ISLIP) SelfCommits() bool { return false }

// SkipIdle implements IdleSkipper: an iSLIP tick against an empty board
// grants nothing, and pointers only move on first-iteration accepts, so
// n idle ticks change no state at all.
//
//osmosis:hotpath
//osmosis:shardsafe
func (s *ISLIP) SkipIdle(uint64) {}
