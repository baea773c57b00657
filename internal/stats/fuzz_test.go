package stats

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/units"
)

// withChecksum wraps a latency section body in the checkpoint header
// and the checksum trailer its bytes hash to, so fuzzed edits reach the
// collector's decoder instead of stopping at the checksum.
func withChecksum(body string) string {
	text := "osmosis-ckpt v2\n" + body
	h := fnv.New64a()
	_, _ = h.Write([]byte(text))
	return fmt.Sprintf("%schecksum %016x\n", text, h.Sum64())
}

// latencyBody saves a collector holding vals and returns its latency
// section, without the header and the checksum trailer.
func latencyBody(tb testing.TB, vals ...units.Time) string {
	tb.Helper()
	var s LatencySample
	for _, v := range vals {
		s.Add(v)
	}
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	s.SaveState(e)
	if err := e.Close(); err != nil {
		tb.Fatal(err)
	}
	text := buf.String()
	return text[strings.Index(text, "\n")+1 : strings.LastIndex(text, "checksum ")]
}

// FuzzLatencyLoadState feeds arbitrary latency sections to
// LatencySample.LoadState: every input is either rejected with an error
// or restores a collector that saves back byte for byte, and nothing
// panics.
func FuzzLatencyLoadState(f *testing.F) {
	body := latencyBody(f, 3, 5, 5, 9, 5)
	f.Add(body)
	for _, edit := range [][2]string{
		{"bin 5 3", "bin 5 4611686018427387904"}, // a forged 2^62 count
		{"bin 5 3\nbin 9 1", "bin 9 1\nbin 5 3"}, // values out of order
		{"bin 3 1", "bin 3 0"},                   // a zero count
		{"bin 9 1", "bin 9 2"},                   // counts sum past the moments' n
	} {
		if !strings.Contains(body, edit[0]) {
			f.Fatalf("seed body lacks %q:\n%s", edit[0], body)
		}
		f.Add(strings.Replace(body, edit[0], edit[1], 1))
	}
	// A consistent 2^62-cell histogram is valid and must round-trip.
	f.Add("begin latency\nrunning 4611686018427387904 0x1p+00 0x0p+00 0x1p+00 0x1p+00\nbin 1 4611686018427387904\nend latency\n")
	f.Fuzz(func(t *testing.T, body string) {
		in := withChecksum(body)
		d, err := ckpt.NewDecoder(strings.NewReader(in))
		if err != nil {
			return // a carriage return, or a body without its final newline
		}
		var got LatencySample
		got.LoadState(d)
		if err := d.Err(); err != nil {
			return
		}
		if err := d.Close(); err != nil {
			return
		}
		_ = got.String() // quantile reads over the restored histogram
		var out bytes.Buffer
		e := ckpt.NewEncoder(&out)
		got.SaveState(e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if out.String() != in {
			t.Fatalf("accepted input does not round-trip:\n in: %q\nout: %q", in, out.String())
		}
	})
}

// TestLatencyLoadStateRejectsBadHistograms: each seeded hostile edit is
// refused with an error, and the collector it was loading into keeps
// its previous state.
func TestLatencyLoadStateRejectsBadHistograms(t *testing.T) {
	good := latencyBody(t, 9, 3, 5)
	for _, tc := range []struct{ name, old, new string }{
		{"forged 2^62 count", "bin 5 1", "bin 5 4611686018427387904"},
		{"descending values", "bin 5 1\nbin 9 1", "bin 9 1\nbin 5 1"},
		{"repeated value", "bin 5 1", "bin 3 1"},
		{"zero count", "bin 5 1", "bin 5 0"},
		{"sum above n", "bin 9 1", "bin 9 2"},
		{"sum below n", "running 3", "running 4"},
		{"overflowing counts", "bin 5 1\nbin 9 1", "bin 5 18446744073709551615\nbin 9 3"},
	} {
		var s LatencySample
		s.Add(7)
		d, err := ckpt.NewDecoder(strings.NewReader(withChecksum(strings.Replace(good, tc.old, tc.new, 1))))
		if err != nil {
			t.Fatal(err)
		}
		s.LoadState(d)
		if err := d.Err(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if s.N() != 1 || s.Median() != 7 {
			t.Errorf("%s: rejected load changed the collector: %v", tc.name, s.String())
		}
	}
	d, err := ckpt.NewDecoder(strings.NewReader(withChecksum(good)))
	if err != nil {
		t.Fatal(err)
	}
	var s LatencySample
	s.LoadState(d)
	if err := d.Err(); err != nil {
		t.Fatalf("control: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("control: %v", err)
	}
}
