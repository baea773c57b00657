package sched

import "slices"

// LQF is the Longest-Queue-First maximal-weight heuristic: a greedy
// matching that repeatedly grants the (input, output) pair with the
// deepest VOQ among unmatched ports. It approximates the maximum-weight
// matching that achieves 100% throughput for any admissible traffic
// (McKeown et al. [17] prove the result for LQF-style weights), at an
// O(N² log N) cost per cycle that hardware cannot afford at OSMOSIS
// cell times — which is exactly why the paper's arbiter family is
// round-robin based. Included as the matching-quality reference in the
// scheduler ablations.
//
// The edge list and output-load scratch are retained across cycles and
// the demand scan walks the bits.go request snapshot, so Demand is
// queried only where a request exists and the steady-state tick
// allocates nothing. The comparator is a total order on (weight desc,
// in asc, out asc) over distinct (in, out) pairs, so the sorted order —
// and therefore the matching — is unique regardless of sort algorithm.
type LQF struct {
	n       int
	sc      *arbScratch
	edges   []lqfEdge
	outLoad []int
}

// NewLQF returns an n-port LQF arbiter.
func NewLQF(n int) *LQF {
	return &LQF{
		n:       n,
		sc:      newArbScratch(n),
		edges:   make([]lqfEdge, 0, n*4),
		outLoad: make([]int, n),
	}
}

// Name implements Scheduler.
func (l *LQF) Name() string { return "lqf" }

// GrantLatency implements Scheduler.
func (l *LQF) GrantLatency() int { return 1 }

// SelfCommits implements Scheduler.
func (l *LQF) SelfCommits() bool { return false }

// SkipIdle implements IdleSkipper: LQF is memoryless between ticks.
//
//osmosis:hotpath
//osmosis:shardsafe
func (l *LQF) SkipIdle(uint64) {}

type lqfEdge struct {
	in, out, w int
}

// compareLQFEdges orders deepest queue first with a deterministic
// (in, out) tiebreak — a total order over distinct pairs, so the sorted
// order is unique regardless of sort algorithm.
func compareLQFEdges(a, b lqfEdge) int {
	if a.w != b.w {
		return b.w - a.w
	}
	if a.in != b.in {
		return a.in - b.in
	}
	return a.out - b.out
}

// TickInto implements Scheduler.
//
//osmosis:hotpath
//osmosis:shardsafe
func (l *LQF) TickInto(_ uint64, b Board, m *Matching) {
	n := l.n
	m.ensure(n)
	m.Reset()
	l.sc.snapshot(b)
	edges := l.edges[:0]
	for in := 0; in < n; in++ {
		row := l.sc.row(l.sc.reqRow, in)
		for out := nextSetBit(row, n, 0); out >= 0; out = nextSetBit(row, n, out+1) {
			//lint:ignore hotpath append into a retained edge slice; cap-stable after warm-up, amortized alloc-free
			edges = append(edges, lqfEdge{in, out, b.Demand(in, out)})
		}
	}
	l.edges = edges
	slices.SortFunc(edges, compareLQFEdges)
	outLoad := l.outLoad
	clear(outLoad)
	for _, e := range edges {
		if m.Out[e.in] >= 0 || outLoad[e.out] >= b.ReceiversAt(e.out) {
			continue
		}
		m.Out[e.in] = e.out
		outLoad[e.out]++
	}
}
