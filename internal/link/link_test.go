package link

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/fec"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestChannelTransit(t *testing.T) {
	c := NewChannel(100*units.Nanosecond, units.OSMOSISPortRate, 0, 1)
	got := c.Transit(0, 256)
	want := 100*units.Nanosecond + 51200*units.Picosecond
	if got != want {
		t.Errorf("transit %v want %v", got, want)
	}
}

func TestCorruptCleanChannel(t *testing.T) {
	c := NewChannel(0, units.OSMOSISPortRate, 0, 1)
	data := []byte{1, 2, 3, 4}
	out := c.Corrupt(data)
	if !bytes.Equal(out, data) {
		t.Error("error-free channel corrupted data")
	}
	if &out[0] == &data[0] {
		t.Error("Corrupt must copy")
	}
}

func TestCorruptMeasuredBER(t *testing.T) {
	const ber = 1e-3
	c := NewChannel(0, units.OSMOSISPortRate, ber, 42)
	buf := make([]byte, 4096)
	for i := 0; i < 300; i++ {
		c.Corrupt(buf)
	}
	got := c.MeasuredBER()
	if math.Abs(got-ber)/ber > 0.1 {
		t.Errorf("measured BER %v, want ~%v (%d flips / %d bits)", got, ber, c.Flips(), c.BitsSent())
	}
}

func TestCorruptHighBER(t *testing.T) {
	// The geometric-gap sampler must behave at large p too.
	c := NewChannel(0, units.OSMOSISPortRate, 0.25, 7)
	buf := make([]byte, 8192)
	c.Corrupt(buf)
	got := c.MeasuredBER()
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("measured BER %v at p=0.25", got)
	}
}

func TestCodecRoundTripClean(t *testing.T) {
	cd := Codec{}
	payload := make([]byte, 4*fec.DataSymbols)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	wire, err := cd.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != 4*fec.BlockSymbols {
		t.Fatalf("wire length %d", len(wire))
	}
	res, err := cd.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != 0 {
		t.Errorf("clean wire: detected=%d", res.Detected)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Error("payload corrupted")
	}
}

func TestCodecRejectsBadSizes(t *testing.T) {
	cd := Codec{}
	if _, err := cd.Encode(make([]byte, 33)); err == nil {
		t.Error("unaligned payload accepted")
	}
	if _, err := cd.Decode(make([]byte, 35)); err == nil {
		t.Error("unaligned wire accepted")
	}
}

func TestCodecCorrectsScatteredErrors(t *testing.T) {
	cd := Codec{Interleave: 4}
	rng := sim.NewRNG(3)
	payload := make([]byte, 8*fec.DataSymbols)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	wire, err := cd.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	// One bit flip per FEC block: with depth-4 interleaving, wire byte
	// g*4*34 + col*4 + row carries symbol col of block g*4+row.
	for b := 0; b < 8; b++ {
		g, row := b/4, b%4
		col := int(rng.Uint64() % uint64(fec.BlockSymbols))
		pos := g*4*fec.BlockSymbols + col*4 + row
		wire[pos] ^= 1 << (rng.Uint64() % 8)
	}
	res, err := cd.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != 0 {
		t.Errorf("detected %d blocks despite single-bit-per-block errors", res.Detected)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Error("payload wrong after correction")
	}
}

func TestCodecInterleaveSavesBursts(t *testing.T) {
	rng := sim.NewRNG(9)
	payload := make([]byte, 4*fec.DataSymbols)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	burst := func(cd Codec) int {
		wire, err := cd.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		// A 4-symbol wire burst (single bit flip in each of 4 adjacent bytes).
		for off := 0; off < 4; off++ {
			wire[100+off] ^= 0x10
		}
		res, err := cd.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		return res.Detected
	}
	if d := burst(Codec{Interleave: 4}); d != 0 {
		t.Errorf("interleaved codec lost %d blocks to a burst", d)
	}
	if d := burst(Codec{}); d == 0 {
		t.Error("un-interleaved codec should lose a block to a 4-symbol burst (guards the comparison)")
	}
}

func TestReliableLinkDeliversInOrderUnderErrors(t *testing.T) {
	k := sim.New()
	// BER high enough that many frames need retransmission.
	fwd := NewChannel(50*units.Nanosecond, units.OSMOSISPortRate, 5e-4, 1)
	rev := NewChannel(50*units.Nanosecond, units.OSMOSISPortRate, 5e-4, 2)
	l := NewReliableLink(k, fwd, rev, Codec{}, 8, 2*units.Microsecond)
	var got [][]byte
	l.Deliver = func(f Frame) {
		cp := append([]byte(nil), f.Payload...)
		got = append(got, cp)
	}
	var want [][]byte
	rng := sim.NewRNG(5)
	const frames = 300
	for i := 0; i < frames; i++ {
		p := make([]byte, 2*fec.DataSymbols)
		for j := range p {
			p[j] = byte(rng.Uint64())
		}
		want = append(want, p)
		if err := l.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(units.Second) // plenty of virtual time
	if !l.Done() {
		t.Fatalf("link not drained: in flight %d", l.InFlight())
	}
	if len(got) != frames {
		t.Fatalf("delivered %d frames, want %d", len(got), frames)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d corrupted or out of order", i)
		}
	}
	if l.CorruptDropped == 0 && l.Retransmitted == 0 {
		t.Error("test BER too low to exercise retransmission")
	}
	t.Logf("sent=%d retransmitted=%d corruptDropped=%d",
		l.Sent, l.Retransmitted, l.CorruptDropped)
}

func TestReliableLinkCleanChannelNoRetransmits(t *testing.T) {
	k := sim.New()
	fwd := NewChannel(10*units.Nanosecond, units.OSMOSISPortRate, 0, 1)
	rev := NewChannel(10*units.Nanosecond, units.OSMOSISPortRate, 0, 2)
	l := NewReliableLink(k, fwd, rev, Codec{}, 4, units.Microsecond)
	delivered := 0
	l.Deliver = func(Frame) { delivered++ }
	for i := 0; i < 50; i++ {
		if err := l.Send(make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(units.Second)
	if delivered != 50 || l.Retransmitted != 0 {
		t.Errorf("delivered=%d retransmitted=%d", delivered, l.Retransmitted)
	}
}

func TestReliableLinkRejectsBadPayload(t *testing.T) {
	k := sim.New()
	l := NewReliableLink(k, NewChannel(0, units.OSMOSISPortRate, 0, 1),
		NewChannel(0, units.OSMOSISPortRate, 0, 2), Codec{}, 4, units.Microsecond)
	if err := l.Send(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if err := l.Send(make([]byte, 33)); err == nil {
		t.Error("unaligned payload accepted")
	}
}

func TestUintCodec(t *testing.T) {
	b := make([]byte, 8)
	for _, v := range []uint64{0, 1, 1<<40 + 7, ^uint64(0)} {
		putUint64(b, v)
		if got := getUint64(b); got != v {
			t.Errorf("round trip %d -> %d", v, got)
		}
	}
}

// TestLinkFaultLatches: a codec rejection during transmit latches a
// sticky fault instead of panicking; the link stops transmitting and
// Send/Err report the fault.
func TestLinkFaultLatches(t *testing.T) {
	k := sim.New()
	fwd := NewChannel(0, units.OSMOSISPortRate, 0, 1)
	rev := NewChannel(0, units.OSMOSISPortRate, 0, 2)
	l := NewReliableLink(k, fwd, rev, Codec{}, 4, units.Microsecond)
	// Inject a frame whose payload the codec must reject (not a
	// multiple of the FEC block size), bypassing Send's validation.
	l.pending = append(l.pending, Frame{Seq: l.next, Payload: make([]byte, 7)})
	l.next++
	l.pump()
	if l.Err() == nil {
		t.Fatal("expected a latched fault after codec rejection")
	}
	if err := l.Send(make([]byte, 32)); err == nil {
		t.Error("Send on a faulted link should return the fault")
	}
	if l.InFlight() == 0 {
		t.Error("the faulted frame should remain unacknowledged")
	}
}
