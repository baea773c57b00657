// Package link models the serial optical links between fabric elements:
// bit-error injection at the raw optical BER, FEC framing on top
// (internal/fec), burst-mode receiver phase acquisition, and the
// hop-by-hop hardware retransmission layer that takes the user BER from
// the FEC's 1e-17 to better than 1e-21 (§IV.C). A sequence-numbered
// reliable control channel (ref [19]) protects the request/grant
// messages between adapters and the scheduler.
package link

import (
	"fmt"
	"math"

	"repro/internal/fec"
	"repro/internal/sim"
	"repro/internal/units"
)

// Channel is a unidirectional serial optical link with propagation
// delay and independent random bit errors at a configured raw BER.
type Channel struct {
	// Delay is the one-way time of flight.
	Delay units.Time
	// Rate is the serial line rate.
	Rate units.Bandwidth
	// RawBER is the per-bit corruption probability in the healthy state.
	RawBER float64

	// burstBER, when burst is set, replaces RawBER — an injected error
	// burst (fault campaign) or a degraded span.
	burstBER float64
	burst    bool

	rng      *sim.RNG
	bitsSent uint64
	flips    uint64
}

// NewChannel builds a channel; seed drives the error process.
func NewChannel(delay units.Time, rate units.Bandwidth, rawBER float64, seed uint64) *Channel {
	return &Channel{Delay: delay, Rate: rate, RawBER: rawBER, rng: sim.NewRNG(seed)}
}

// Transit reports the arrival time of a frame of n bytes sent at t.
func (c *Channel) Transit(t units.Time, nBytes int) units.Time {
	return t + c.Delay + units.TransmissionTime(nBytes, c.Rate)
}

// SetBurst raises the channel's error rate to ber until ClearBurst —
// the BER-burst fault that drives FEC uncorrectables into the
// retransmission layer. The error process keeps consuming the same RNG
// stream, so a burst changes the statistics, not the stream identity.
func (c *Channel) SetBurst(ber float64) {
	c.burstBER = ber
	c.burst = true
}

// ClearBurst restores the healthy RawBER.
func (c *Channel) ClearBurst() {
	c.burst = false
	c.burstBER = 0
}

// ActiveBER reports the error rate currently applied to traffic.
func (c *Channel) ActiveBER() float64 {
	if c.burst {
		return c.burstBER
	}
	return c.RawBER
}

// Corrupt applies the channel's error process to a copy of data.
//
// For the tiny BERs of real optics, per-bit sampling would almost never
// flip anything; the geometric inter-error gap sampling below is exact
// and O(errors), so simulations can run at true raw BERs or at elevated
// rates for stress tests.
func (c *Channel) Corrupt(data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	nbits := uint64(len(data)) * 8
	c.bitsSent += nbits
	if c.ActiveBER() <= 0 || nbits == 0 {
		return out
	}
	// Sample the position of each error as a geometric gap.
	pos := uint64(0)
	for {
		gap := c.geometricGap()
		pos += gap
		if pos >= nbits {
			break
		}
		out[pos/8] ^= 1 << (pos % 8)
		c.flips++
		pos++
	}
	return out
}

// geometricGap draws the number of clean bits before the next error.
func (c *Channel) geometricGap() uint64 {
	u := c.rng.Float64()
	for u == 0 {
		u = c.rng.Float64()
	}
	// Inverse-CDF of the geometric distribution with the active BER.
	g := int64(logFloat(u) / log1mFloat(c.ActiveBER()))
	if g < 0 {
		return 0
	}
	return uint64(g)
}

// BitsSent and Flips expose the realized error statistics.
func (c *Channel) BitsSent() uint64 { return c.bitsSent }

// Flips reports how many bit errors the channel injected.
func (c *Channel) Flips() uint64 { return c.flips }

// MeasuredBER reports the realized bit-error rate.
func (c *Channel) MeasuredBER() float64 {
	if c.bitsSent == 0 {
		return 0
	}
	return float64(c.flips) / float64(c.bitsSent)
}

// Codec frames payloads into interleaved FEC blocks for a Channel.
type Codec struct {
	Interleave int
}

// Encode splits payload (a multiple of fec.DataSymbols bytes) into FEC
// blocks, encodes each and interleaves the result for the wire.
func (cd Codec) Encode(payload []byte) ([]byte, error) {
	if len(payload)%fec.DataSymbols != 0 {
		return nil, fmt.Errorf("link: payload %d bytes not a multiple of %d", len(payload), fec.DataSymbols)
	}
	nblocks := len(payload) / fec.DataSymbols
	coded := make([]byte, 0, nblocks*fec.BlockSymbols)
	for b := 0; b < nblocks; b++ {
		blk, err := fec.Encode(payload[b*fec.DataSymbols : (b+1)*fec.DataSymbols])
		if err != nil {
			return nil, err
		}
		coded = append(coded, blk...)
	}
	depth := cd.Interleave
	if depth <= 1 || nblocks%depth != 0 {
		return coded, nil
	}
	iv, err := fec.NewInterleaver(depth)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(coded))
	group := depth * fec.BlockSymbols
	for off := 0; off < len(coded); off += group {
		w, err := iv.Interleave(coded[off : off+group])
		if err != nil {
			return nil, err
		}
		out = append(out, w...)
	}
	return out, nil
}

// DecodeResult tallies a frame decode.
type DecodeResult struct {
	Payload  []byte
	Detected int // blocks flagged uncorrectable
}

// Decode deinterleaves and decodes a wire frame; blocks flagged
// uncorrectable leave Detected > 0 and the caller must retransmit.
func (cd Codec) Decode(wire []byte) (DecodeResult, error) {
	var res DecodeResult
	if len(wire)%fec.BlockSymbols != 0 {
		return res, fmt.Errorf("link: wire frame %d bytes not a multiple of %d", len(wire), fec.BlockSymbols)
	}
	coded := wire
	depth := cd.Interleave
	if depth > 1 && (len(wire)/fec.BlockSymbols)%depth == 0 {
		iv, err := fec.NewInterleaver(depth)
		if err != nil {
			return res, err
		}
		out := make([]byte, 0, len(wire))
		group := depth * fec.BlockSymbols
		for off := 0; off < len(wire); off += group {
			d, err := iv.Deinterleave(wire[off : off+group])
			if err != nil {
				return res, err
			}
			out = append(out, d...)
		}
		coded = out
	}
	for off := 0; off < len(coded); off += fec.BlockSymbols {
		blk := make([]byte, fec.BlockSymbols)
		copy(blk, coded[off:off+fec.BlockSymbols])
		data, status, err := fec.Decode(blk)
		if err != nil {
			return res, err
		}
		if status == fec.Detected {
			res.Detected++
			data = blk[:fec.DataSymbols] // deliver as-is; flagged bad
		}
		res.Payload = append(res.Payload, data...)
	}
	return res, nil
}

func logFloat(x float64) float64   { return math.Log(x) }
func log1mFloat(p float64) float64 { return math.Log1p(-p) }
