package link

import (
	"testing"

	"repro/internal/fec"
)

// FuzzCodecDecode feeds arbitrary wire bytes to the frame codec: no
// panics, and aligned frames always produce a payload of the right size
// regardless of corruption.
func FuzzCodecDecode(f *testing.F) {
	cd := Codec{Interleave: 4}
	clean, _ := cd.Encode(make([]byte, 4*fec.DataSymbols))
	f.Add(clean)
	f.Add(make([]byte, fec.BlockSymbols))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, wire []byte) {
		res, err := cd.Decode(append([]byte(nil), wire...))
		if len(wire)%fec.BlockSymbols != 0 {
			if err == nil {
				t.Fatalf("unaligned wire of %d bytes accepted", len(wire))
			}
			return
		}
		if err != nil {
			t.Fatalf("aligned wire errored: %v", err)
		}
		wantBlocks := len(wire) / fec.BlockSymbols
		if len(res.Payload) != wantBlocks*fec.DataSymbols {
			t.Fatalf("payload %d bytes for %d blocks", len(res.Payload), wantBlocks)
		}
		if res.Detected > wantBlocks {
			t.Fatalf("accounting: detected %d > %d blocks", res.Detected, wantBlocks)
		}
	})
}
