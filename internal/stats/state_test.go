package stats

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/units"
)

// TestLatencySampleCheckpointRoundTrip: a restored collector reports the
// same quantiles AND keeps accumulating identically (Welford moments and
// the histogram both survive the round trip).
func TestLatencySampleCheckpointRoundTrip(t *testing.T) {
	orig := &LatencySample{}
	for i := 0; i < 500; i++ {
		orig.Add(units.Time((i*7919)%1000 + 1))
	}
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	orig.SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	twin := &LatencySample{}
	twin.Add(3) // pre-existing junk must be replaced, not merged
	d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	twin.LoadState(d)
	if err := d.Err(); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	if twin.N() != orig.N() || twin.Mean() != orig.Mean() || twin.StdDev() != orig.StdDev() {
		t.Fatalf("moments diverged: n %d/%d mean %v/%v", twin.N(), orig.N(), twin.Mean(), orig.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if twin.Quantile(q) != orig.Quantile(q) {
			t.Fatalf("q%v diverged: %v vs %v", q, twin.Quantile(q), orig.Quantile(q))
		}
	}
	if a, b := orig.histogram(), twin.histogram(); !slices.Equal(a, b) {
		t.Fatalf("histogram diverged:\n  saved    %v\n  restored %v", a, b)
	}
	// Continued accumulation stays identical.
	for i := 0; i < 100; i++ {
		orig.Add(units.Time(i + 5))
		twin.Add(units.Time(i + 5))
	}
	if twin.P99() != orig.P99() || twin.StdDev() != orig.StdDev() {
		t.Fatalf("post-restore accumulation diverged: p99 %v/%v", twin.P99(), orig.P99())
	}
}

func TestRunningCheckpointRoundTrip(t *testing.T) {
	var orig Running
	for i := 0; i < 64; i++ {
		orig.Add(float64(i) * 1.5)
	}
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	orig.SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	var twin Running
	d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	twin.LoadState(d)
	if err := d.Err(); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if twin != orig {
		t.Fatalf("running moments diverged: %+v vs %+v", twin, orig)
	}
}
