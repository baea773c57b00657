package link

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// Cell transport: the hop-by-hop reliable link carrying actual fabric
// cells, as between two stages of the multistage fabric (§IV.C). A cell
// serializes into one link frame — header fields plus the 256-byte
// payload — which the FEC codec splits into blocks; detected-
// uncorrectable blocks trigger go-back-N retransmission, so cells cross
// the hop lossless and in order despite the raw optical BER. The engines
// move cells between stages without a link model, so this transport is
// a test fixture: it shows the link layer carries real cells intact.

// cellWireBytes is the serialized size: 64-byte header area (ID, src,
// dst, class, seq, created) padded to the FEC data-block grid, plus a
// fixed 256-byte payload area.
const (
	cellHeaderBytes  = 64
	cellPayloadBytes = 256
	cellWireBytes    = cellHeaderBytes + cellPayloadBytes
)

// MarshalCell serializes a cell for link transport. Payloads longer
// than 256 bytes are rejected; shorter ones are zero-padded.
func MarshalCell(c *packet.Cell) ([]byte, error) {
	if len(c.Payload) > cellPayloadBytes {
		return nil, fmt.Errorf("link: payload %d bytes exceeds %d", len(c.Payload), cellPayloadBytes)
	}
	buf := make([]byte, cellWireBytes)
	putUint64(buf[0:], c.ID)
	putUint64(buf[8:], uint64(int64(c.Src)))
	putUint64(buf[16:], uint64(int64(c.Dst)))
	buf[24] = byte(c.Class)
	putUint64(buf[32:], c.Seq)
	putUint64(buf[40:], uint64(c.Created))
	buf[48] = byte(len(c.Payload))
	if len(c.Payload) == cellPayloadBytes {
		buf[48] = 0
		buf[49] = 1 // full-payload marker
	}
	copy(buf[cellHeaderBytes:], c.Payload)
	return buf, nil
}

// UnmarshalCell inverts MarshalCell.
func UnmarshalCell(buf []byte) (*packet.Cell, error) {
	if len(buf) != cellWireBytes {
		return nil, fmt.Errorf("link: cell frame %d bytes, want %d", len(buf), cellWireBytes)
	}
	c := &packet.Cell{
		ID:      getUint64(buf[0:]),
		Src:     int(int64(getUint64(buf[8:]))),
		Dst:     int(int64(getUint64(buf[16:]))),
		Class:   packet.Class(buf[24]),
		Seq:     getUint64(buf[32:]),
		Created: units.Time(getUint64(buf[40:])),
	}
	n := int(buf[48])
	if buf[49] == 1 {
		n = cellPayloadBytes
	}
	if n > 0 {
		c.Payload = append([]byte(nil), buf[cellHeaderBytes:cellHeaderBytes+n]...)
	}
	return c, nil
}

// CellTransport couples a ReliableLink to cell semantics: Send queues
// cells, Deliver hands back reconstructed cells in order.
type CellTransport struct {
	link *ReliableLink
	// Deliver receives each transported cell, in order.
	Deliver func(c *packet.Cell)
	// Sent counts cells queued; Received counts cells delivered.
	Sent, Received uint64
	// FramingErrors counts frames that decoded cleanly yet failed to
	// parse as cells — a framing bug in the stack, not channel noise.
	FramingErrors uint64
	// failure latches the first framing fault for Err.
	failure error
}

// NewCellTransport builds a transport over forward/reverse channels.
func NewCellTransport(k *sim.Kernel, fwd, rev *Channel, codec Codec, window int, timeout units.Time) *CellTransport {
	t := &CellTransport{}
	t.link = NewReliableLink(k, fwd, rev, codec, window, timeout)
	t.link.Deliver = func(f Frame) {
		c, err := UnmarshalCell(f.Payload)
		if err != nil {
			// A frame that decodes cleanly but fails to parse indicates
			// a framing bug, not channel noise; drop it and latch the
			// fault so Err surfaces it to the caller.
			t.FramingErrors++
			if t.failure == nil {
				t.failure = fmt.Errorf("link: cell transport framing: %w", err)
			}
			return
		}
		t.Received++
		if t.Deliver != nil {
			t.Deliver(c)
		}
	}
	return t
}

// Err reports the first transport fault (a framing error on receive or
// an unrecoverable fault on the underlying link), or nil.
func (t *CellTransport) Err() error {
	if t.failure != nil {
		return t.failure
	}
	return t.link.Err()
}

// Send queues a cell for reliable transport.
func (t *CellTransport) Send(c *packet.Cell) error {
	buf, err := MarshalCell(c)
	if err != nil {
		return err
	}
	if err := t.link.Send(buf); err != nil {
		return err
	}
	t.Sent++
	return nil
}

// Done reports whether every queued cell has been acknowledged.
func (t *CellTransport) Done() bool { return t.link.Done() }

// Stats exposes the underlying link counters.
func (t *CellTransport) Stats() (sent, retransmitted, corruptDropped uint64) {
	return t.link.Sent, t.link.Retransmitted, t.link.CorruptDropped
}

func TestMarshalCellRoundTripProperty(t *testing.T) {
	f := func(id, seq uint64, src, dst uint16, cls bool, payloadLen uint16, created int64) bool {
		c := &packet.Cell{
			ID:      id,
			Src:     int(src),
			Dst:     int(dst),
			Seq:     seq,
			Created: units.Time(created) & (1<<62 - 1),
		}
		if cls {
			c.Class = packet.Control
		}
		n := int(payloadLen) % (cellPayloadBytes + 1)
		if n > 0 {
			c.Payload = make([]byte, n)
			for i := range c.Payload {
				c.Payload[i] = byte(i * 3)
			}
		}
		buf, err := MarshalCell(c)
		if err != nil {
			return false
		}
		back, err := UnmarshalCell(buf)
		if err != nil {
			return false
		}
		return back.ID == c.ID && back.Src == c.Src && back.Dst == c.Dst &&
			back.Class == c.Class && back.Seq == c.Seq && back.Created == c.Created &&
			bytes.Equal(back.Payload, c.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMarshalCellRejectsOversize(t *testing.T) {
	c := &packet.Cell{Payload: make([]byte, cellPayloadBytes+1)}
	if _, err := MarshalCell(c); err == nil {
		t.Error("oversize payload accepted")
	}
	if _, err := UnmarshalCell(make([]byte, 10)); err == nil {
		t.Error("short frame accepted")
	}
}

// TestCellTransportOverNoisyHop carries a stream of sequenced cells
// across a high-BER hop and verifies lossless in-order delivery with
// intact payloads — the §IV.C inter-stage link contract.
func TestCellTransportOverNoisyHop(t *testing.T) {
	k := sim.New()
	fwd := NewChannel(250*units.Nanosecond, units.OSMOSISPortRate, 2e-4, 1)
	rev := NewChannel(250*units.Nanosecond, units.OSMOSISPortRate, 2e-4, 2)
	tr := NewCellTransport(k, fwd, rev, Codec{Interleave: 5}, 16, 3*units.Microsecond)

	order := packet.NewOrderChecker()
	var got []*packet.Cell
	tr.Deliver = func(c *packet.Cell) {
		got = append(got, c)
		order.Deliver(c)
	}

	alloc := packet.NewAllocator()
	rng := sim.NewRNG(7)
	const cells = 400
	want := make([]*packet.Cell, 0, cells)
	for i := 0; i < cells; i++ {
		c := alloc.New(3, 9, packet.Data, units.Time(i)*51200)
		c.Payload = make([]byte, cellPayloadBytes)
		for j := range c.Payload {
			c.Payload[j] = byte(rng.Uint64())
		}
		want = append(want, c)
		if err := tr.Send(c); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(units.Second)
	if !tr.Done() {
		t.Fatal("transport did not drain")
	}
	if len(got) != cells {
		t.Fatalf("delivered %d of %d cells", len(got), cells)
	}
	if order.Violations() != 0 {
		t.Errorf("order violations: %d", order.Violations())
	}
	for i, c := range got {
		if c.ID != want[i].ID || !bytes.Equal(c.Payload, want[i].Payload) {
			t.Fatalf("cell %d corrupted in transport", i)
		}
	}
	_, retx, dropped := tr.Stats()
	if retx == 0 && dropped == 0 {
		t.Error("BER too low to exercise the repair path")
	}
	t.Logf("cells %d, retransmitted frames %d, FEC-dropped %d", cells, retx, dropped)
}
