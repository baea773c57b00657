package link

import (
	"fmt"

	"repro/internal/sim"
)

// Reliable control channel (ref [19], "Reliable control protocol for
// crossbar arbitration"): request/grant traffic between the ingress
// adapters and the central scheduler is latency critical, so loss
// cannot be repaired by ordinary retransmission. The protocol instead
// makes the exchange self-healing:
//
//   - Requests are *absolute state* (per-VOQ occupancy counters), not
//     increments. A corrupted request message is simply discarded; the
//     next cycle's snapshot heals the scheduler's view.
//   - Grants carry a sequence number, and the next request message
//     echoes the highest grant sequence received. A missing echo tells
//     the scheduler the grant was lost so it can release the reserved
//     crossbar resources instead of leaking them.
//
// ControlChannel simulates one adapter-scheduler pair of this protocol
// under message corruption and verifies that both views re-converge.

// ControlChannel models the protocol between one adapter and the
// scheduler with i.i.d. message corruption on both directions.
type ControlChannel struct {
	n       int
	lossPct float64
	rng     *sim.RNG

	// Adapter-side truth.
	adapterCounts []int
	grantEcho     uint64

	// Scheduler-side view.
	schedView []int
	nextGrant uint64
	// outstanding holds the sequence numbers of grants lost in flight.
	outstanding map[uint64]bool

	// Stats.
	RequestsSent, RequestsLost uint64
	GrantsSent, GrantsLost     uint64
	GrantsRecovered            uint64
}

// NewControlChannel builds a channel for an n-output adapter with the
// given per-message corruption probability.
func NewControlChannel(n int, lossProb float64, seed uint64) *ControlChannel {
	return &ControlChannel{
		n:             n,
		lossPct:       lossProb,
		rng:           sim.NewRNG(seed),
		adapterCounts: make([]int, n),
		schedView:     make([]int, n),
		outstanding:   make(map[uint64]bool),
	}
}

// Enqueue records cells arriving into the adapter's VOQs.
func (cc *ControlChannel) Enqueue(out, cells int) error {
	if out < 0 || out >= cc.n {
		return fmt.Errorf("link: output %d out of range", out)
	}
	cc.adapterCounts[out] += cells
	return nil
}

// SchedulerView reports the scheduler's belief for an output.
func (cc *ControlChannel) SchedulerView(out int) int { return cc.schedView[out] }

// Converged reports whether the scheduler's view matches adapter truth.
func (cc *ControlChannel) Converged() bool {
	for i := range cc.schedView {
		if cc.schedView[i] != cc.adapterCounts[i] {
			return false
		}
	}
	return true
}

// CycleRequest sends the per-cycle request snapshot (possibly lost).
func (cc *ControlChannel) CycleRequest() {
	cc.RequestsSent++
	if cc.rng.Bernoulli(cc.lossPct) {
		cc.RequestsLost++
		return
	}
	// The snapshot carries the absolute VOQ occupancy per output and the
	// highest grant sequence the adapter has received.
	copy(cc.schedView, cc.adapterCounts)
	// The echo confirms grants; anything outstanding at or below the
	// echo is known delivered, anything the adapter has not echoed after
	// this snapshot was lost (the snapshot still shows its cell queued),
	// and its reservation is released.
	for seq := range cc.outstanding {
		if seq > cc.grantEcho {
			cc.GrantsRecovered++
		}
		delete(cc.outstanding, seq)
	}
}

// IssueGrant sends a grant for an output (possibly lost) and returns
// whether the adapter received it.
func (cc *ControlChannel) IssueGrant(out int) (received bool) {
	cc.nextGrant++
	seq := cc.nextGrant
	cc.GrantsSent++
	if cc.schedView[out] > 0 {
		cc.schedView[out]--
	}
	if cc.rng.Bernoulli(cc.lossPct) {
		cc.GrantsLost++
		cc.outstanding[seq] = true
		return false
	}
	// Adapter receives: dequeues a cell and records the echo.
	if cc.adapterCounts[out] > 0 {
		cc.adapterCounts[out]--
	}
	if seq > cc.grantEcho {
		cc.grantEcho = seq
	}
	return true
}
