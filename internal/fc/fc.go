// Package fc implements the fabric's lossless flow control (§IV.B):
// credit-based local and remote loops with deterministic round-trip
// times, realized the way the paper describes — the central scheduler of
// each stage acts as flow-control manager, masking transmission grants
// for downstream ingress buffers that are out of space, with FC events
// relayed on existing control and data channels rather than a dedicated
// out-of-band network.
//
// Because every loop's RTT is deterministic (fixed cable lengths, fixed
// packet cycle), the buffer size that sustains full rate is exactly
// computable; BufferFor gives the paper's "straightforward buffer
// sizing".
package fc

import "fmt"

// Credits tracks the upstream view of one downstream buffer: the number
// of cells that may still be sent. The return flight is modelled by the
// caller: the fabric's credit wire carries each return for the reverse
// time-of-flight and lands it here with LandRefilled, so the end-to-end
// loop is exactly LoopRTT slots.
type Credits struct {
	avail int
	// Shortfalls counts cycles in which a send was refused.
	Shortfalls uint64
}

// NewCredits builds a counter holding initial credits.
func NewCredits(initial int) (*Credits, error) {
	if initial < 0 {
		return nil, fmt.Errorf("fc: negative initial credits %d", initial)
	}
	return &Credits{avail: initial}, nil
}

// CanSend reports whether one cell may be launched.
func (c *Credits) CanSend() bool { return c.avail > 0 }

// Consume takes one credit; it returns false (and counts a shortfall)
// when none is available.
//
//osmosis:shardsafe
func (c *Credits) Consume() bool {
	if c.avail <= 0 {
		c.Shortfalls++
		return false
	}
	c.avail--
	return true
}

// ConsumeEmptied is Consume with a CanSend-transition signal: emptied
// reports that this consume took the last credit (CanSend flipped
// true→false). Callers that mirror CanSend in a mask word update it
// only on these transitions instead of re-querying per (in, out).
//
//osmosis:hotpath
//osmosis:shardsafe
func (c *Credits) ConsumeEmptied() (ok, emptied bool) {
	if c.avail <= 0 {
		c.Shortfalls++
		return false, false
	}
	c.avail--
	return true, c.avail == 0
}

// LandRefilled makes one returned credit usable. refilled reports that
// this landing made the counter usable again (CanSend flipped
// false→true) — the other edge of ConsumeEmptied.
//
//osmosis:hotpath
//osmosis:shardsafe
func (c *Credits) LandRefilled() (refilled bool) {
	c.avail++
	return c.avail == 1
}

// BufferFor reports the ingress-buffer capacity (in cells) needed to
// sustain 100% rate over a flow-control loop with the given RTT: one
// cell per cycle can be in flight for a full round trip before the
// first credit returns, so capacity = rttSlots (+ margin for scheduler
// processing cycles).
func BufferFor(rttSlots, marginSlots int) int {
	if rttSlots < 1 {
		rttSlots = 1
	}
	if marginSlots < 0 {
		marginSlots = 0
	}
	return rttSlots + marginSlots
}

// LoopRTT reports the remote FC loop round-trip in packet cycles for a
// cable of linkDelaySlots one-way delay and schedLatencySlots grant
// pipeline: cell flight down + occupancy report relayed through the
// downstream scheduler and carried back on the reverse channel + grant
// issue.
func LoopRTT(linkDelaySlots, schedLatencySlots int) int {
	if linkDelaySlots < 0 {
		linkDelaySlots = 0
	}
	if schedLatencySlots < 0 {
		schedLatencySlots = 0
	}
	return 2*linkDelaySlots + schedLatencySlots + 1
}
