package fabric

// Format-drift guard for osmosis-ckpt v2. testdata/xgft16_bimodal.ckpt
// was written by an earlier build; every later build must read it,
// re-save it byte-for-byte, and finish the run exactly as the
// uninterrupted twin does. The snapshot is taken mid-measurement at a
// load where VOQs, egress queues, both traffic classes' order-checker
// rows and the allocators' source counters are populated, so a change
// to the in-memory layout of the queues, the per-flow tables or the
// counters that leaks into the encoding fails here.
//
// Regenerate (only for a deliberate format change) with
//
//	go test ./internal/fabric -run TestGoldenCheckpointFile -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden checkpoint under testdata")

const (
	goldenCkptFile                     = "xgft16_bimodal.ckpt"
	goldenWarmup, goldenMeasure        = 50, 300
	goldenCkptAt                uint64 = 213 // mid-measurement, mid-window (window = 3)
)

func goldenCkptConfig(tb testing.TB) (Config, traffic.Config) {
	tb.Helper()
	x, err := NewXGFT(16, 8, 2)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{
		Network:        x,
		Receivers:      2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 2,
		Shards:         2,
	}
	tcfg := traffic.Config{Kind: traffic.KindBimodal, N: 16, Load: 0.85,
		ControlShare: 0.25, Seed: 7}
	return cfg, tcfg
}

// goldenTwin drives a fresh session to the golden checkpoint slot.
func goldenTwin(t *testing.T, cfg Config, tcfg traffic.Config) *Session {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartSession(f, buildGens(t, tcfg), goldenWarmup, goldenMeasure)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance(goldenCkptAt); err != nil {
		t.Fatal(err)
	}
	return s
}

// runToEnd runs a session to the end of its timeline, drains the fabric
// and returns the final fingerprint.
func runToEnd(t *testing.T, s *Session) string {
	t.Helper()
	for !s.Done() {
		if _, err := s.Advance(101); err != nil {
			t.Fatal(err)
		}
	}
	drained, err := s.Fabric().Drain(400000)
	if err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("failed to drain")
	}
	return s.Metrics().Fingerprint()
}

func TestGoldenCheckpointFile(t *testing.T) {
	cfg, tcfg := goldenCkptConfig(t)
	path := filepath.Join("testdata", goldenCkptFile)

	twin := goldenTwin(t, cfg, tcfg)
	if *updateGolden {
		var snap bytes.Buffer
		if err := twin.Save(&snap); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(golden)
	for _, want := range []string{"\nq 0 ", "\nq 1 ", "\noflow ", "\nsource "} {
		if !strings.Contains(text, want) {
			t.Fatalf("golden checkpoint lacks a %q record; it no longer covers both classes' queues, flow rows and source counters", strings.TrimSpace(want))
		}
	}

	// The live build, driven to the same slot, writes the same bytes.
	var live bytes.Buffer
	if err := twin.Save(&live); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), golden) {
		t.Error("a fresh run saved at the golden slot no longer writes the golden bytes")
	}

	// Restore the file (at a different shard count) and re-save it.
	rcfg := cfg
	rcfg.Shards = 3
	rf, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ResumeSession(rf, buildGens(t, tcfg), bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("golden checkpoint no longer restores: %v", err)
	}
	var again bytes.Buffer
	if err := rs.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Error("restoring and re-saving the golden checkpoint changed its bytes")
	}

	if got, want := runToEnd(t, rs), runToEnd(t, twin); got != want {
		t.Errorf("run resumed from the golden checkpoint diverged from its uninterrupted twin:\n  twin:    %s\n  resumed: %s", want, got)
	}
}
