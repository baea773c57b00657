package sched

// PipelinedISLIP models the "previous state of the art" arbiter of
// Fig. 6: the FPGA completes only one iSLIP iteration per 51.2 ns packet
// cycle, so a matching samples the request state, is refined for log2 N
// cycles, and only then issues its grants. A new matching is started
// every cycle, so the scheduler still emits one matching per cycle and
// sustains throughput — but every request waits the full pipeline depth
// for its grant, which is the latency penalty FLPPR removes.
//
// Model: each cycle a complete multi-iteration matching is computed from
// the current uncommitted demand and its cells are committed on the
// Board immediately (they are promised); the matching is then held in a
// delay line and issued depth-1 cycles later. Committing at computation
// time keeps matchings computed in the intervening cycles from claiming
// the same cells, exactly like the request-counter bookkeeping in the
// hardware scheduler.
//
// The delay line is a fixed ring of depth matchings reused in place: a
// matching computed at tick t lands in slot (t+depth-1) mod depth and
// is issued when the ring position returns to it, so the steady-state
// tick allocates nothing.
type PipelinedISLIP struct {
	n, depth, iters int
	grantPtr        []int
	acceptPtr       []int
	delay           []Matching
	pos             uint64
	sc              *arbScratch
}

// NewPipelinedISLIP returns an n-port pipelined iSLIP whose grants lag
// requests by depth cycles (<= 0 selects log2 n, the iteration count the
// paper cites as necessary for good utilization [17]).
func NewPipelinedISLIP(n, depth int) *PipelinedISLIP {
	if depth <= 0 {
		depth = Log2Ceil(n)
	}
	s := &PipelinedISLIP{n: n, depth: depth, iters: depth}
	s.grantPtr = make([]int, n)
	s.acceptPtr = make([]int, n)
	s.delay = make([]Matching, depth)
	for i := range s.delay {
		s.delay[i] = NewMatching(n)
	}
	s.sc = newArbScratch(n)
	return s
}

// Name implements Scheduler.
func (s *PipelinedISLIP) Name() string { return "pipelined-islip" }

// GrantLatency implements Scheduler: every request waits the full
// pipeline depth.
func (s *PipelinedISLIP) GrantLatency() int { return s.depth }

// TickInto implements Scheduler.
//
//osmosis:hotpath
//osmosis:shardsafe
func (s *PipelinedISLIP) TickInto(_ uint64, b Board, m *Matching) {
	// Start this cycle's matching from current (uncommitted) demand and
	// commit every edge: the grant is now promised for depth-1 cycles on.
	d := uint64(s.depth)
	w := &s.delay[(s.pos+d-1)%d]
	w.Reset()
	s.sc.snapshot(b)
	s.sc.iterate(w, s.sc.fresh(), s.grantPtr, s.acceptPtr, s.iters)
	for in, out := range w.Out {
		if out >= 0 {
			b.Commit(in, out)
		}
	}
	issued := &s.delay[s.pos%d]
	m.ensure(s.n)
	copy(m.Out, issued.Out)
	s.pos++
}

// SelfCommits implements Scheduler: TickInto commits every promised edge.
func (s *PipelinedISLIP) SelfCommits() bool { return true }

// SkipIdle implements IdleSkipper. An idle TickInto matches nothing,
// commits nothing, resets the rolling write slot, and advances pos — so
// n idle ticks collapse to pos += n plus resetting the min(n, depth)
// ring entries the skipped ticks would have overwritten. The resets are
// not optional: the slot issued at the moment the board drained still
// holds that last non-empty matching, and a ticked scheduler clears it
// one slot later, before the ring position ever returns to issue it
// again. A skip that only advanced pos could land the issue cursor on
// the stale entry and re-grant cells that no longer exist.
//
//osmosis:hotpath
//osmosis:shardsafe
func (s *PipelinedISLIP) SkipIdle(n uint64) {
	d := uint64(s.depth)
	k := n
	if k > d {
		k = d
	}
	for i := uint64(0); i < k; i++ {
		s.delay[(s.pos+d-1+i)%d].Reset()
	}
	s.pos += n
}
