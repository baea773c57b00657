package sched

// This file preserves the pre-bitset-rewrite scheduler implementations
// verbatim (modulo ref* renames) as the golden reference for the
// equivalence suite in equivalence_test.go. The bitset core in bits.go
// must produce bit-identical matchings to these at every tick — that is
// the determinism contract of the rewrite. Do not "improve" this code;
// its value is that it does not change.

import (
	"sort"

	"repro/internal/sim"
)

// refIterate is the pre-rewrite iterate: the round-robin request/grant/
// accept protocol over per-(in,out) Demand interface calls, allocating
// its grant bookkeeping every iteration.
func refIterate(b Board, m *Matching, grantPtr, acceptPtr []int, iters int, demandUsed [][]int) int {
	n := len(m.Out)
	outLoad := m.OutputLoad(n)
	added := 0
	for it := 0; it < iters; it++ {
		grants := make([][]int, n) // grants[in] = outputs granting to in
		granted := false
		for out := 0; out < n; out++ {
			capacity := b.ReceiversAt(out) - outLoad[out]
			if capacity <= 0 {
				continue
			}
			start := grantPtr[out]
			for k := 0; k < n && capacity > 0; k++ {
				in := (start + k) % n
				if m.Out[in] >= 0 {
					continue
				}
				d := b.Demand(in, out)
				if demandUsed != nil {
					d -= demandUsed[in][out]
				}
				if d <= 0 {
					continue
				}
				grants[in] = append(grants[in], out)
				capacity--
				granted = true
			}
		}
		if !granted {
			break
		}
		accepted := false
		for in := 0; in < n; in++ {
			gs := grants[in]
			if len(gs) == 0 || m.Out[in] >= 0 {
				continue
			}
			best, bestDist := -1, n+1
			for _, out := range gs {
				dist := (out - acceptPtr[in] + n) % n
				if dist < bestDist {
					best, bestDist = out, dist
				}
			}
			if best < 0 || outLoad[best] >= b.ReceiversAt(best) {
				continue
			}
			m.Out[in] = best
			outLoad[best]++
			added++
			accepted = true
			if demandUsed != nil {
				demandUsed[in][best]++
			}
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

// refScheduler is the minimal surface the equivalence driver needs.
type refScheduler interface {
	Tick(slot uint64, b Board) Matching
	SelfCommits() bool
}

// refISLIP is the pre-rewrite combinational iSLIP.
type refISLIP struct {
	n, iters  int
	grantPtr  []int
	acceptPtr []int
}

func newRefISLIP(n, iters int) *refISLIP {
	if iters <= 0 {
		iters = Log2Ceil(n)
	}
	return &refISLIP{n: n, iters: iters, grantPtr: make([]int, n), acceptPtr: make([]int, n)}
}

func (s *refISLIP) SelfCommits() bool { return false }

func (s *refISLIP) Tick(_ uint64, b Board) Matching {
	m := NewMatching(s.n)
	refIterate(b, &m, s.grantPtr, s.acceptPtr, s.iters, nil)
	return m
}

// refFLPPR is the pre-rewrite FLPPR with its shifting pending queue.
type refFLPPR struct {
	n, k      int
	grantPtr  [][]int
	acceptPtr [][]int
	pend      []*refFlpprPartial
}

type refFlpprPartial struct {
	m   Matching
	sub int
}

func newRefFLPPR(n, k int) *refFLPPR {
	if k <= 0 {
		k = Log2Ceil(n)
	}
	f := &refFLPPR{n: n, k: k}
	f.grantPtr = make([][]int, k)
	f.acceptPtr = make([][]int, k)
	for s := 0; s < k; s++ {
		f.grantPtr[s] = make([]int, n)
		f.acceptPtr[s] = make([]int, n)
	}
	f.pend = make([]*refFlpprPartial, f.k)
	for j := 0; j < f.k; j++ {
		f.pend[j] = &refFlpprPartial{m: NewMatching(f.n), sub: j % f.k}
	}
	return f
}

func (f *refFLPPR) SelfCommits() bool { return true }

func (f *refFLPPR) Tick(slot uint64, b Board) Matching {
	prev := make([]int, f.n)
	for j := 0; j < f.k; j++ {
		p := f.pend[j]
		copy(prev, p.m.Out)
		if refIterate(b, &p.m, f.grantPtr[p.sub], f.acceptPtr[p.sub], 1, nil) > 0 {
			for in, out := range p.m.Out {
				if out >= 0 && prev[in] != out {
					b.Commit(in, out)
				}
			}
		}
	}
	issued := f.pend[0]
	copy(f.pend, f.pend[1:])
	f.pend[f.k-1] = &refFlpprPartial{m: NewMatching(f.n), sub: int(slot % uint64(f.k))}
	return issued.m
}

// refPipelinedISLIP is the pre-rewrite delay-queue pipelined iSLIP.
type refPipelinedISLIP struct {
	n, depth, iters int
	grantPtr        []int
	acceptPtr       []int
	delay           []Matching
}

func newRefPipelinedISLIP(n, depth int) *refPipelinedISLIP {
	if depth <= 0 {
		depth = Log2Ceil(n)
	}
	s := &refPipelinedISLIP{n: n, depth: depth, iters: depth}
	s.grantPtr = make([]int, n)
	s.acceptPtr = make([]int, n)
	s.delay = make([]Matching, 0, s.depth)
	for i := 0; i < s.depth-1; i++ {
		s.delay = append(s.delay, NewMatching(s.n))
	}
	return s
}

func (s *refPipelinedISLIP) SelfCommits() bool { return true }

func (s *refPipelinedISLIP) Tick(_ uint64, b Board) Matching {
	m := NewMatching(s.n)
	refIterate(b, &m, s.grantPtr, s.acceptPtr, s.iters, nil)
	for in, out := range m.Out {
		if out >= 0 {
			b.Commit(in, out)
		}
	}
	s.delay = append(s.delay, m)
	issued := s.delay[0]
	s.delay = s.delay[1:]
	return issued
}

// refPIM is the pre-rewrite randomized PIM.
type refPIM struct {
	n, iters int
	rng      *sim.RNG
}

func newRefPIM(n, iters int, seed uint64) *refPIM {
	if iters <= 0 {
		iters = Log2Ceil(n)
	}
	return &refPIM{n: n, iters: iters, rng: sim.NewRNG(seed)}
}

func (p *refPIM) SelfCommits() bool { return false }

func (p *refPIM) Tick(_ uint64, b Board) Matching {
	n := p.n
	m := NewMatching(n)
	outLoad := make([]int, n)
	for it := 0; it < p.iters; it++ {
		grants := make([][]int, n)
		granted := false
		for out := 0; out < n; out++ {
			capacity := b.ReceiversAt(out) - outLoad[out]
			if capacity <= 0 {
				continue
			}
			var requesters []int
			for in := 0; in < n; in++ {
				if m.Out[in] < 0 && b.Demand(in, out) > 0 {
					requesters = append(requesters, in)
				}
			}
			for c := 0; c < capacity && len(requesters) > 0; c++ {
				k := p.rng.Intn(len(requesters))
				in := requesters[k]
				requesters = append(requesters[:k], requesters[k+1:]...)
				grants[in] = append(grants[in], out)
				granted = true
			}
		}
		if !granted {
			break
		}
		accepted := false
		for in := 0; in < n; in++ {
			gs := grants[in]
			if len(gs) == 0 || m.Out[in] >= 0 {
				continue
			}
			var avail []int
			for _, out := range gs {
				if outLoad[out] < b.ReceiversAt(out) {
					avail = append(avail, out)
				}
			}
			if len(avail) == 0 {
				continue
			}
			out := avail[p.rng.Intn(len(avail))]
			m.Out[in] = out
			outLoad[out]++
			accepted = true
		}
		if !accepted {
			break
		}
	}
	return m
}

// refLQF is the pre-rewrite sort.Slice-based longest-queue-first.
type refLQF struct{ n int }

func newRefLQF(n int) *refLQF { return &refLQF{n: n} }

func (l *refLQF) SelfCommits() bool { return false }

func (l *refLQF) Tick(_ uint64, b Board) Matching {
	n := l.n
	edges := make([]lqfEdge, 0, n*4)
	for in := 0; in < n; in++ {
		for out := 0; out < n; out++ {
			if w := b.Demand(in, out); w > 0 {
				edges = append(edges, lqfEdge{in, out, w})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].in != edges[j].in {
			return edges[i].in < edges[j].in
		}
		return edges[i].out < edges[j].out
	})
	m := NewMatching(n)
	outLoad := make([]int, n)
	for _, e := range edges {
		if m.Out[e.in] >= 0 || outLoad[e.out] >= b.ReceiversAt(e.out) {
			continue
		}
		m.Out[e.in] = e.out
		outLoad[e.out]++
	}
	return m
}
