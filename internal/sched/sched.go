// Package sched implements the central crossbar arbiters the paper
// studies: PIM, iSLIP (combinational and pipelined "prior art"), and the
// OSMOSIS FLPPR scheduler (Fast Low-latency Parallel Pipelined
// aRbitration, ref [22]), plus the load-balanced Birkhoff-von Neumann
// switch used as an architectural comparison (§VI.D).
//
// The contract is slot-synchronous: once per packet cycle the switch
// engine calls TickInto with a Board view of the current VOQ state; the
// scheduler writes the matching to execute in that cycle. Pipelined
// schedulers keep in-progress matchings across cycles and must Commit
// cells they promise to future matchings so they are not double-counted.
package sched

import "fmt"

// Board is the scheduler's view of the ingress VOQ state.
type Board interface {
	// N reports the port count.
	N() int
	// Receivers reports how many cells one output can nominally accept
	// per cycle (1 = single receiver, 2 = the OSMOSIS dual-receiver
	// option).
	Receivers() int
	// ReceiversAt reports the capacity currently available at one
	// output: Receivers() minus any receivers a fault has taken out of
	// service. Schedulers must size per-output grants with this, so a
	// degraded egress is arbitrated exactly like a narrower healthy one.
	ReceiversAt(out int) int
	// Demand reports the number of uncommitted queued cells at input in
	// destined to output out.
	Demand(in, out int) int
	// DemandRowBits fills row (ceil(N/64) words) with bit out set iff
	// Demand(in, out) > 0. Boards keep these bits up to date as demand
	// changes, so a scheduler snapshots the whole matrix in ceil(N/64)
	// word copies per port instead of N² Demand calls.
	DemandRowBits(in int, row []uint64)
	// DemandColBits fills col (ceil(N/64) words) with bit in set iff
	// Demand(in, out) > 0: the same matrix, transposed.
	DemandColBits(out int, col []uint64)
	// Commit reserves one queued cell of VOQ(in,out) for a grant that a
	// pipelined scheduler will deliver in a future cycle.
	Commit(in, out int)
	// Uncommit releases a reservation that will not turn into a grant.
	Uncommit(in, out int)
}

// Matching is the arbitration result for one cycle: Out[i] is the list
// of outputs input i transmits to (at most one — each ingress has a
// single transmitter; the slice form keeps the representation uniform
// with the per-output multiplicity R on the receive side).
type Matching struct {
	// Out[i] is the granted output for input i, or -1.
	Out []int
}

// NewMatching returns an empty matching over n inputs.
func NewMatching(n int) Matching {
	m := Matching{Out: make([]int, n)}
	m.Reset()
	return m
}

// Reset clears the matching in place to the all-unmatched state so the
// same backing slice serves the next cycle without reallocating.
func (m *Matching) Reset() {
	for i := range m.Out {
		m.Out[i] = -1
	}
}

// ensure resizes m.Out to n inputs, reallocating only when the caller's
// matching is too small; the contents are unspecified afterwards.
func (m *Matching) ensure(n int) {
	if cap(m.Out) < n {
		//lint:ignore hotpath reallocates only when the port count grows; steady-state cycles reuse the retained backing array
		m.Out = make([]int, n)
		return
	}
	m.Out = m.Out[:n]
}

// Size reports the number of matched inputs.
func (m Matching) Size() int {
	s := 0
	for _, o := range m.Out {
		if o >= 0 {
			s++
		}
	}
	return s
}

// OutputLoad reports how many inputs were matched to each output.
func (m Matching) OutputLoad(n int) []int {
	return m.OutputLoadInto(make([]int, n))
}

// OutputLoadInto fills the caller-owned load slice (one entry per
// output, zeroed here) with how many inputs were matched to each output
// and returns it — the allocation-free form of OutputLoad.
func (m Matching) OutputLoadInto(load []int) []int {
	for i := range load {
		load[i] = 0
	}
	for _, o := range m.Out {
		if o >= 0 {
			load[o]++
		}
	}
	return load
}

// Validate checks the crossbar constraints: at most one output per input
// (by construction) and at most r inputs per output.
func (m Matching) Validate(n, r int) error {
	for i, o := range m.Out {
		if o < -1 || o >= n {
			return fmt.Errorf("sched: input %d matched to invalid output %d", i, o)
		}
	}
	load := m.OutputLoad(n)
	for o, l := range load {
		if l > r {
			return fmt.Errorf("sched: output %d matched %d times, max %d", o, l, r)
		}
	}
	return nil
}

// Scheduler arbitrates the bufferless crossbar once per packet cycle.
type Scheduler interface {
	// Name identifies the algorithm in reports.
	Name() string
	// GrantLatency reports the nominal light-load request-to-grant
	// pipeline depth in packet cycles (Fig. 6: 1 for FLPPR, log2 N for
	// the pipelined prior art).
	GrantLatency() int
	// TickInto performs one cycle of arbitration work and writes the
	// matching to execute this cycle into the caller-owned m (resized
	// if needed, then overwritten). Steady-state TickInto performs zero
	// heap allocations for every scheduler in this package; m is valid
	// until the caller's next TickInto call.
	TickInto(slot uint64, b Board, m *Matching)
	// SelfCommits reports whether TickInto already calls Board.Commit for
	// every edge it promises (pipelined schedulers). When false and the
	// switch delays matchings (control-RTT modelling), the switch engine
	// must commit the edges itself to keep demand accounting correct.
	SelfCommits() bool
	// Reset clears all pointer and pipeline state.
	Reset()
}

// IdleSkipper is an optional Scheduler extension: SkipIdle(n) must leave
// the scheduler in exactly the state n consecutive TickInto calls would —
// against a board with zero demand everywhere and no outstanding
// commitments — without paying for the ticks. The fabric's active-set
// tick loop uses it to stop arbitrating empty switches: a switch whose
// VOQs, egress queues, and in-flight commitments are all empty is
// fast-forwarded over its idle slots when the next cell arrives, so
// skipping is an execution-schedule change, never a state change.
//
// Schedulers that mutate state on idle ticks (FLPPR rotates its pipeline
// head, PipelinedISLIP advances its delay-ring position) implement the
// equivalent arithmetic; schedulers whose idle tick is a provable no-op
// implement it as one. A scheduler without this interface is never
// skipped.
type IdleSkipper interface {
	SkipIdle(n uint64)
}

// Log2Ceil reports ceil(log2(n)), the iteration count the paper cites as
// required for good utilization on an n-port switch [17].
func Log2Ceil(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	if k == 0 {
		return 1
	}
	return k
}
