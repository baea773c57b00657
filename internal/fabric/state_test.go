package fabric

// Checkpoint/restore and Session tests — the tentpole's determinism
// contract. A run checkpointed at slot T and restored (at any shard
// count) must finish with a byte-identical metrics fingerprint to its
// uninterrupted twin, including when T falls mid-window relative to the
// parallel engine's lookahead barriers.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/traffic"
)

func buildGens(t *testing.T, tcfg traffic.Config) []traffic.Generator {
	t.Helper()
	gens, err := traffic.Build(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return gens
}

// sessionRun drives a full session in the given Advance chunk sizes
// (cycling through them) and returns the final fingerprint after drain.
func sessionRun(t *testing.T, cfg Config, tcfg traffic.Config, warmup, measure uint64, chunks []uint64) string {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartSession(f, buildGens(t, tcfg), warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !s.Done(); i++ {
		if _, err := s.Advance(chunks[i%len(chunks)]); err != nil {
			t.Fatal(err)
		}
	}
	drained, err := f.Drain(400000)
	if err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("failed to drain")
	}
	return s.Metrics().Fingerprint()
}

// TestSessionMatchesRun: the incrementally driven session equals the
// one-shot serialRun oracle byte-for-byte, for several awkward chunkings
// (mid-window pauses, single-slot steps, giant steps).
func TestSessionMatchesRun(t *testing.T) {
	cfg := Config{Network: testNet(32, 8), Receivers: 2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 3} // window = 4
	tcfg := traffic.Config{Kind: traffic.KindUniform, N: 32, Load: 0.8, Seed: 31}
	ref, _, _ := runSharded(t, cfg, tcfg, 0, 200, 1000)

	for name, chunks := range map[string][]uint64{
		"one-shot":    {1 << 62},
		"single-slot": {1},
		"mid-window":  {7, 13, 1, 97},
		"window":      {4},
	} {
		if got := sessionRun(t, cfg, tcfg, 200, 1000, chunks); got != ref {
			t.Errorf("%s chunking diverged from the serial oracle:\n  ref: %s\n  got: %s", name, ref, got)
		}
	}
	// And with a sharded fabric under the session.
	scfg := cfg
	scfg.Shards = 3
	if got := sessionRun(t, scfg, tcfg, 200, 1000, []uint64{5, 11}); got != ref {
		t.Errorf("sharded session diverged from the serial oracle:\n  ref: %s\n  got: %s", ref, got)
	}
}

// checkpointedRun drives a session to ckptAt slots, saves, restores into
// a fresh fabric (restoreShards) with fresh generators, finishes, drains
// and returns the fingerprint plus the snapshot bytes.
func checkpointedRun(t *testing.T, cfg Config, tcfg traffic.Config, warmup, measure, ckptAt uint64, restoreShards int) (string, []byte) {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartSession(f, buildGens(t, tcfg), warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance(ckptAt); err != nil {
		t.Fatal(err)
	}
	if got := s.Slot(); got != ckptAt {
		t.Fatalf("advance stopped at slot %d, want %d", got, ckptAt)
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatalf("save at slot %d: %v", ckptAt, err)
	}

	// The original is discarded; the restored twin finishes the run.
	rcfg := cfg
	rcfg.Shards = restoreShards
	rf, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ResumeSession(rf, buildGens(t, tcfg), bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("resume at slot %d into %d shards: %v", ckptAt, restoreShards, err)
	}
	if rs.Slot() != ckptAt {
		t.Fatalf("restored clock %d, want %d", rs.Slot(), ckptAt)
	}
	for !rs.Done() {
		if _, err := rs.Advance(257); err != nil {
			t.Fatal(err)
		}
	}
	drained, err := rf.Drain(400000)
	if err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("restored fabric failed to drain")
	}
	return rs.Metrics().Fingerprint(), snap.Bytes()
}

// TestCheckpointRestoreBitExact is the core tentpole property on small
// shapes: save at assorted mid-run slots (inside warm-up, straddling the
// measurement boundary, mid-measurement — all mid-window for the
// engine's lookahead), restore at assorted shard counts, and require the
// final fingerprint to match the uninterrupted serial reference.
func TestCheckpointRestoreBitExact(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		tcfg traffic.Config
	}{
		{
			name: "uniform",
			cfg: Config{Network: testNet(32, 8), Receivers: 2,
				NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
				LinkDelaySlots: 3, Shards: 2},
			tcfg: traffic.Config{Kind: traffic.KindUniform, N: 32, Load: 0.8, Seed: 41},
		},
		{
			name: "bursty-delay0",
			cfg: Config{Network: testNet(32, 8), Receivers: 2,
				NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
				LinkDelaySlots: 0, Shards: 3},
			tcfg: traffic.Config{Kind: traffic.KindBursty, N: 32, Load: 0.6, Seed: 42},
		},
		{
			name: "option1-islip",
			cfg: Config{Network: testNet(32, 8), Receivers: 2,
				NewScheduler:   func() sched.Scheduler { return sched.NewISLIP(8, 2) },
				LinkDelaySlots: 2, EgressBuffered: true, Shards: 2},
			tcfg: traffic.Config{Kind: traffic.KindUniform, N: 32, Load: 0.7, Seed: 43},
		},
		{
			name: "hotspot-bimodal",
			cfg: Config{Network: testNet(32, 8), Receivers: 2,
				NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
				LinkDelaySlots: 4, Shards: 2},
			tcfg: traffic.Config{Kind: traffic.KindBimodal, N: 32, Load: 0.7,
				ControlShare: 0.2, Seed: 44},
		},
	}
	const warmup, measure = 100, 600
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			serial := tc.cfg
			serial.Shards = 0
			ref, _, _ := runSharded(t, serial, tc.tcfg, 0, warmup, measure)
			for _, p := range []struct {
				ckptAt        uint64
				restoreShards int
			}{
				{ckptAt: 37, restoreShards: 1},  // inside warm-up, serial restore
				{ckptAt: 97, restoreShards: 4},  // warm-up boundary region, wider restore
				{ckptAt: 355, restoreShards: 3}, // mid-measurement
			} {
				got, _ := checkpointedRun(t, tc.cfg, tc.tcfg, warmup, measure, p.ckptAt, p.restoreShards)
				if got != ref {
					t.Errorf("ckpt@%d restore@%d shards diverged:\n  ref: %s\n  got: %s",
						p.ckptAt, p.restoreShards, ref, got)
				}
			}
		})
	}
}

// TestCheckpointDeterministicBytes: saving the same state twice yields
// identical snapshot bytes (canonical ordering everywhere).
func TestCheckpointDeterministicBytes(t *testing.T) {
	cfg := Config{Network: testNet(32, 8), Receivers: 2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 3, Shards: 2}
	tcfg := traffic.Config{Kind: traffic.KindUniform, N: 32, Load: 0.8, Seed: 51}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartSession(f, buildGens(t, tcfg), 50, 400)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance(123); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := s.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two saves of the same state produced different bytes")
	}
}

// TestCheckpointDrainEquivalence: restoring and draining equals draining
// the original — in-flight cells and credit returns land on the same
// slots (the fabric-level half of the fc ring audit).
func TestCheckpointDrainEquivalence(t *testing.T) {
	cfg := Config{Network: testNet(32, 8), Receivers: 2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 5, Shards: 2}
	tcfg := traffic.Config{Kind: traffic.KindUniform, N: 32, Load: 0.9, Seed: 61}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartSession(f, buildGens(t, tcfg), 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if _, err := s.Advance(97); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	rf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ResumeSession(rf, buildGens(t, tcfg), bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Tick both to idle in lockstep; they must agree slot by slot.
	for i := 0; i < 100000; i++ {
		oi, ri := f.Idle(), rf.Idle()
		if oi != ri {
			t.Fatalf("slot %d: original idle=%v restored idle=%v", f.Slot(), oi, ri)
		}
		if oi {
			break
		}
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		if err := rf.Step(); err != nil {
			t.Fatal(err)
		}
		if f.Metrics().Delivered != rf.Metrics().Delivered {
			t.Fatalf("slot %d: delivered %d vs %d", f.Slot(), f.Metrics().Delivered, rf.Metrics().Delivered)
		}
	}
	if !f.Idle() {
		t.Fatal("original never drained")
	}
	if got, want := rs.Metrics().Fingerprint(), s.Metrics().Fingerprint(); got != want {
		t.Errorf("post-drain fingerprints diverged:\n  orig: %s\n  rest: %s", want, got)
	}
	// All credits home in the restored fabric — the PR 7 Idle bug class,
	// in serialized form.
	for _, n := range rf.nodes {
		for out, cr := range n.credits {
			if cr == nil {
				continue
			}
			if got := creditsHeld(cr); got != rf.cfg.InputCapacity {
				t.Errorf("restored node %v out %d: %d credits after drain, want %d",
					n.id, out, got, rf.cfg.InputCapacity)
			}
		}
	}
}

// TestCheckpointRejectsMismatchAndCorruption: wrong-shape fabrics, wrong
// traffic shapes, and corrupted snapshots are all refused loudly.
func TestCheckpointRejectsMismatchAndCorruption(t *testing.T) {
	cfg := Config{Network: testNet(32, 8), Receivers: 2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 3}
	tcfg := traffic.Config{Kind: traffic.KindUniform, N: 32, Load: 0.8, Seed: 71}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartSession(f, buildGens(t, tcfg), 50, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance(77); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	text := snap.String()

	resume := func(mutate func(*Config), body string) error {
		rcfg := cfg
		if mutate != nil {
			mutate(&rcfg)
		}
		rf, err := New(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		gens := buildGens(t, traffic.Config{Kind: traffic.KindUniform, N: rcfg.Network.Hosts, Load: 0.8, Seed: 71})
		_, err = ResumeSession(rf, gens, strings.NewReader(body))
		return err
	}

	if err := resume(nil, text); err != nil {
		t.Fatalf("clean resume failed: %v", err)
	}
	if err := resume(func(c *Config) { c.LinkDelaySlots = 5 }, text); err == nil {
		t.Error("delay-3 checkpoint restored into delay-5 fabric")
	}
	if err := resume(func(c *Config) { c.EgressBuffered = true }, text); err == nil {
		t.Error("option-3 checkpoint restored into option-1 fabric")
	}
	if err := resume(func(c *Config) {
		c.NewScheduler = func() sched.Scheduler { return sched.NewISLIP(8, 2) }
	}, text); err == nil {
		t.Error("flppr checkpoint restored into islip fabric")
	}

	// Flip one byte in the middle: the checksum (or a parse) must refuse.
	mid := len(text) / 2
	corrupt := text[:mid] + string(rune(text[mid])^1) + text[mid+1:]
	if err := resume(nil, corrupt); err == nil {
		t.Error("corrupted snapshot restored")
	}
	// Truncate: refuse.
	if err := resume(nil, text[:len(text)*3/4]); err == nil {
		t.Error("truncated snapshot restored")
	}
	// A forged credit-return count under a valid checksum is refused
	// before the restore expands it into the credit wire.
	body := text[:strings.LastIndex(text, "checksum ")]
	i := strings.Index(body, "\ncw ")
	if i < 0 {
		t.Fatal("snapshot holds no credit return in flight")
	}
	end := i + 1 + strings.Index(body[i+1:], "\n")
	fields := strings.Fields(body[i+1 : end])
	fields[len(fields)-1] = "1099511627776"
	forged := body[:i+1] + strings.Join(fields, " ") + body[end:]
	h := fnv.New64a()
	_, _ = h.Write([]byte(forged))
	if err := resume(nil, fmt.Sprintf("%schecksum %016x\n", forged, h.Sum64())); err == nil || !strings.Contains(err.Error(), "credit return count") {
		t.Errorf("forged credit-return count: resume error %v, want the count refused", err)
	}

	// A used fabric is not a restore target.
	uf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := uf.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSession(uf, buildGens(t, tcfg), strings.NewReader(text)); err == nil {
		t.Error("restore into a used fabric accepted")
	}
}

// TestTimelinePastBoundRefused: the fabric clock never runs past
// packet.MaxTimelineSlots, so the 32-bit flow counters never wrap. Run
// refuses a timeline ending past the bound before any slot runs; a
// session may declare one (open-ended), but Advance refuses the step
// that would cross the bound; StartSession and ResumeSessionState
// refuse warm-up and measure values whose uint64 sum wraps. No test
// steps that many slots: the clock is set next to the bound instead.
func TestTimelinePastBoundRefused(t *testing.T) {
	cfg := Config{Network: testNet(32, 8), Receivers: 2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 3}
	tcfg := traffic.Config{Kind: traffic.KindUniform, N: 32, Load: 0.5, Seed: 9}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gens := buildGens(t, tcfg)
	const bound = packet.MaxTimelineSlots
	for _, tc := range [][2]uint64{{bound, 1}, {1 << 63, 1 << 63}, {math.MaxUint64, math.MaxUint64}} {
		if _, err := f.Run(gens, tc[0], tc[1]); err == nil {
			t.Errorf("Run(warmup %d, measure %d) accepted", tc[0], tc[1])
		}
	}
	for _, tc := range [][2]uint64{{1 << 63, 1 << 63}, {math.MaxUint64, 1}} {
		if _, err := StartSession(f, gens, tc[0], tc[1]); err == nil {
			t.Errorf("StartSession(warmup %d, measure %d) accepted", tc[0], tc[1])
		}
	}
	if f.slot != 0 || f.measureSet || f.metrics.MeasureSlots != 0 {
		t.Fatalf("refused timelines armed the fabric: slot %d, measure window %v/%d", f.slot, f.measureSet, f.metrics.MeasureSlots)
	}

	// A session checkpoint whose timeline overflows is refused.
	s, err := StartSession(f, gens, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance(8); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	text := snap.String()
	run := "\nrun 0 20 20 0\n"
	if !strings.Contains(text, run) {
		t.Fatalf("session checkpoint lacks %q", run)
	}
	for _, forged := range []string{"\nrun 0 9223372036854775808 9223372036854775808 0\n", "\nrun 0 18446744073709551615 20 0\n"} {
		body := strings.Replace(text[:strings.LastIndex(text, "checksum ")], run, forged, 1)
		h := fnv.New64a()
		_, _ = h.Write([]byte(body))
		rf, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := fmt.Sprintf("%schecksum %016x\n", body, h.Sum64())
		if _, err := ResumeSession(rf, buildGens(t, tcfg), strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("session record %q: resume error %v, want the timeline refused", strings.TrimSpace(forged), err)
		}
	}

	// Next to the bound: as if the fabric had run that long.
	near, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	near.slot = bound - 10
	for _, sh := range near.shards {
		sh.slot = near.slot
	}
	if _, err := near.Run(gens, 5, 6); err == nil {
		t.Error("Run ending one slot past the bound accepted")
	}
	open, err := StartSession(near, gens, 2, 1<<40)
	if err != nil {
		t.Fatalf("open-ended session: %v", err)
	}
	if _, err := open.Advance(8); err != nil {
		t.Fatalf("advancing to 2 slots short of the bound: %v", err)
	}
	if _, err := open.Advance(3); err == nil {
		t.Error("Advance one slot past the bound accepted")
	}
	if near.slot != bound-2 {
		t.Errorf("refused Advance moved the clock to %d, want %d", near.slot, uint64(bound-2))
	}
	if _, err := open.Advance(2); err != nil {
		t.Errorf("advancing to the bound: %v", err)
	}
	if _, err := open.Advance(1); err == nil {
		t.Error("Advance past the bound accepted")
	}
	if near.slot != bound {
		t.Errorf("the session next to the bound ran to slot %d, want %d", near.slot, uint64(bound))
	}
}

// TestGoldenCheckpoint2048Ports is the acceptance run: the paper-scale
// 2048-port, radix-64, 3-stage fabric at 0.95 load, checkpointed at a
// slot that is NOT a multiple of the parallel engine's lookahead window
// (window = 6 at delay 5), restored under Shards > 1, must finish with
// a byte-identical fingerprint to the uninterrupted serial reference.
func TestGoldenCheckpoint2048Ports(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-port golden checkpoint is expensive")
	}
	cfg := Config{
		Network:        testNet(2048, 64),
		Receivers:      2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(64, 0) },
		LinkDelaySlots: 5, // window = 6; ckpt slots below are mid-window
		Shards:         4,
	}
	tcfg := traffic.Config{Kind: traffic.KindUniform, N: 2048, Load: 0.95, Seed: 1}
	const warmup, measure = 0, 180

	serial := cfg
	serial.Shards = 0
	ref, m, _ := runSharded(t, serial, tcfg, 0, warmup, measure)
	if m.Delivered == 0 {
		t.Fatal("nothing delivered at scale")
	}
	for _, ckptAt := range []uint64{97, 151} {
		got, snap := checkpointedRun(t, cfg, tcfg, warmup, measure, ckptAt, 4)
		if got != ref {
			t.Errorf("ckpt@%d diverged from uninterrupted reference:\n  ref: %s\n  got: %s",
				ckptAt, ref, got)
		}
		if len(snap) == 0 {
			t.Fatalf("ckpt@%d produced empty snapshot", ckptAt)
		}
	}
}
