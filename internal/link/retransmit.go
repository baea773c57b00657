package link

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// Frame is one link-layer transmission unit: a sequence-numbered
// payload protected by the FEC codec.
type Frame struct {
	Seq     uint64
	Payload []byte
}

// ReliableLink implements the hop-by-hop hardware retransmission of
// §IV.C over an unreliable Channel pair: go-back-N with cumulative ACKs
// riding the reverse channel. The receiver delivers frames strictly in
// order; frames whose FEC decode flags uncorrectable errors are treated
// as lost and repaired by retransmission from the sender window.
//
// The combination reproduces the paper's reliability budget: the FEC
// corrects isolated errors, detected-uncorrectable blocks are repaired
// by retransmission, and only FEC miscorrections (≈1e-21) leak through.
type ReliableLink struct {
	kernel  *sim.Kernel
	forward *Channel
	reverse *Channel
	codec   Codec

	// Window is the go-back-N sender window in frames.
	Window int
	// Timeout triggers retransmission when ACKs stall; size it above
	// one round trip plus frame time.
	Timeout units.Time

	// Deliver is invoked for each in-order, verified frame payload.
	Deliver func(f Frame)

	// Sender state: pending holds frames [base, next); high is the next
	// sequence to (re)transmit, rewound to base on timeout.
	next, base, high uint64
	maxSent          uint64
	pending          []Frame
	timer            sim.Handle
	timerSet         bool

	// Receiver state.
	expect uint64

	// Stats.
	Sent, Retransmitted, CorruptDropped uint64

	// failure records the first unrecoverable link fault (the codec
	// rejecting a frame); once set the link stops transmitting and
	// Send/Err report it.
	failure error
}

// NewReliableLink wires a reliable link over forward/reverse channels.
func NewReliableLink(k *sim.Kernel, fwd, rev *Channel, codec Codec, window int, timeout units.Time) *ReliableLink {
	if window < 1 {
		window = 8
	}
	return &ReliableLink{
		kernel:  k,
		forward: fwd,
		reverse: rev,
		codec:   codec,
		Window:  window,
		Timeout: timeout,
	}
}

// Send queues a payload (a positive multiple of 32 bytes, the FEC data
// block size) for reliable in-order delivery.
func (l *ReliableLink) Send(payload []byte) error {
	if l.failure != nil {
		return l.failure
	}
	if len(payload) == 0 || len(payload)%32 != 0 {
		return fmt.Errorf("link: payload must be a positive multiple of 32 bytes, got %d", len(payload))
	}
	f := Frame{Seq: l.next, Payload: append([]byte(nil), payload...)}
	l.next++
	l.pending = append(l.pending, f)
	l.pump()
	return nil
}

// Done reports whether every queued frame has been acknowledged.
func (l *ReliableLink) Done() bool { return l.base == l.next }

// Err reports the first unrecoverable link fault, or nil. A faulted
// link keeps accepting simulated receive events but stops transmitting.
func (l *ReliableLink) Err() error { return l.failure }

// fail latches the first unrecoverable fault.
func (l *ReliableLink) fail(err error) {
	if l.failure == nil {
		l.failure = err
	}
}

// pump transmits frames up to the window edge.
func (l *ReliableLink) pump() {
	for l.failure == nil && l.high < l.next && l.high < l.base+uint64(l.Window) {
		l.transmit(l.pending[l.high-l.base])
		l.high++
	}
	l.armTimer()
}

// transmit encodes and launches one frame on the forward channel.
func (l *ReliableLink) transmit(f Frame) {
	if f.Seq < l.maxSent {
		l.Retransmitted++
	} else {
		l.maxSent = f.Seq + 1
		l.Sent++
	}
	header := make([]byte, 32) // one FEC block carries seq + reserved
	putUint64(header, f.Seq)
	wire, err := l.codec.Encode(append(header, f.Payload...))
	if err != nil {
		l.fail(fmt.Errorf("link: encode: %w", err))
		return
	}
	corrupted := l.forward.Corrupt(wire)
	arrive := l.forward.Transit(l.kernel.Now(), len(wire))
	l.kernel.At(arrive, func(units.Time) { l.receive(corrupted) })
}

// receive runs at the far end: FEC-decode, verify, deliver in order,
// and ACK cumulatively.
func (l *ReliableLink) receive(wire []byte) {
	res, err := l.codec.Decode(wire)
	if err != nil || res.Detected > 0 {
		// Treat as lost; the sender timeout will go-back-N.
		l.CorruptDropped++
		return
	}
	seq := getUint64(res.Payload[:8])
	if seq != l.expect {
		// Duplicate or gap (go-back overlap); restate the cumulative ACK.
		l.sendAck(l.expect)
		return
	}
	l.expect++
	if l.Deliver != nil {
		l.Deliver(Frame{Seq: seq, Payload: res.Payload[32:]})
	}
	l.sendAck(l.expect)
}

// sendAck carries a cumulative ACK on the reverse channel. ACKs are
// FEC-protected like data; a corrupted ACK is dropped and a later one
// supersedes it.
func (l *ReliableLink) sendAck(cum uint64) {
	payload := make([]byte, 32)
	putUint64(payload, cum)
	wire, err := l.codec.Encode(payload)
	if err != nil {
		l.fail(fmt.Errorf("link: ack encode: %w", err))
		return
	}
	corrupted := l.reverse.Corrupt(wire)
	arrive := l.reverse.Transit(l.kernel.Now(), len(wire))
	l.kernel.At(arrive, func(units.Time) { l.receiveAck(corrupted) })
}

// receiveAck advances the sender window.
func (l *ReliableLink) receiveAck(wire []byte) {
	res, err := l.codec.Decode(wire)
	if err != nil || res.Detected > 0 {
		return
	}
	cum := getUint64(res.Payload[:8])
	if cum <= l.base {
		return
	}
	advance := cum - l.base
	if advance > uint64(len(l.pending)) {
		advance = uint64(len(l.pending))
	}
	l.pending = l.pending[advance:]
	l.base += advance
	if l.high < l.base {
		l.high = l.base
	}
	if l.timerSet {
		l.kernel.Cancel(l.timer)
		l.timerSet = false
	}
	l.pump()
}

// armTimer (re)arms the go-back-N timeout while frames are in flight.
func (l *ReliableLink) armTimer() {
	if l.timerSet || l.base == l.next {
		return
	}
	l.timerSet = true
	l.timer = l.kernel.After(l.Timeout, func(units.Time) {
		l.timerSet = false
		l.high = l.base // go-back-N: resend the whole window
		l.pump()
	})
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
