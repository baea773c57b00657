package traffic

// Checkpoint round-trip suite for every workload kind: a generator set
// checkpointed mid-stream and restored into a freshly Built twin must
// produce identical arrivals for every subsequent slot.

import (
	"strings"
	"testing"

	"repro/internal/ckpt"
)

func stateKindConfigs(t *testing.T) map[string]Config {
	t.Helper()
	const n = 8
	cfgs := map[string]Config{
		"uniform":        {Kind: KindUniform, N: n, Load: 0.7, ControlShare: 0.1, Seed: 11},
		"bursty":         {Kind: KindBursty, N: n, Load: 0.6, MeanBurst: 8, Seed: 12},
		"hotspot":        {Kind: KindHotspot, N: n, Load: 0.5, HotFraction: 0.4, HotPort: 3, Seed: 13},
		"permutation":    {Kind: KindPermutation, N: n, Load: 0.9, Seed: 14},
		"diagonal":       {Kind: KindDiagonal, N: n, Load: 0.8, Seed: 15},
		"bimodal":        {Kind: KindBimodal, N: n, Load: 0.6, ControlShare: 0.1, Seed: 16},
		"incast":         {Kind: KindIncast, N: n, Load: 0.7, Fanin: 3, EpochSlots: 32, Seed: 17},
		"mmpp":           {Kind: KindMMPP, N: n, Load: 0.5, MeanBurst: 16, Seed: 18},
		"pareto":         {Kind: KindParetoOnOff, N: n, Load: 0.5, MeanBurst: 8, ParetoAlpha: 1.6, Seed: 19},
		"alltoall":       {Kind: KindAllToAll, N: n, Load: 0.6, PhaseSlots: 16, Seed: 20},
		"ring-allreduce": {Kind: KindRingAllReduce, N: n, Load: 0.7, PhaseSlots: 16, Seed: 21},
		"tree-allreduce": {Kind: KindTreeAllReduce, N: n, Load: 0.6, PhaseSlots: 16, Seed: 22},
	}
	// A trace workload replays through TracePlayer's cursor.
	tr, err := RecordTrace(Config{Kind: KindBursty, N: n, Load: 0.6, Seed: 23}, 400)
	if err != nil {
		t.Fatalf("record trace: %v", err)
	}
	cfgs["trace"] = Config{Kind: KindTrace, Trace: tr}
	return cfgs
}

func TestGeneratorCheckpointRoundTripAllKinds(t *testing.T) {
	for name, cfg := range stateKindConfigs(t) {
		t.Run(name, func(t *testing.T) {
			orig, err := Build(cfg)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			// Advance into the middle of the stream (bursts in flight,
			// pending FIFOs possibly populated).
			for s := uint64(0); s < 150; s++ {
				for _, g := range orig {
					g.Next(s)
				}
			}
			// Checkpoint every port.
			var buf strings.Builder
			e := ckpt.NewEncoder(&buf)
			for _, g := range orig {
				g.SaveState(e)
			}
			if err := e.Close(); err != nil {
				t.Fatalf("save: %v", err)
			}
			// Restore into a freshly built twin.
			twin, err := Build(cfg)
			if err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
			if err != nil {
				t.Fatalf("decoder: %v", err)
			}
			for _, g := range twin {
				g.LoadState(d)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("load: %v", err)
			}
			// Identical arrivals from here on.
			for s := uint64(150); s < 500; s++ {
				for p := range orig {
					a1, ok1 := orig[p].Next(s)
					a2, ok2 := twin[p].Next(s)
					if ok1 != ok2 || a1 != a2 {
						t.Fatalf("slot %d port %d: diverged: (%v,%v) vs (%v,%v)", s, p, a1, ok1, a2, ok2)
					}
				}
			}
		})
	}
}

// TestGeneratorCheckpointKindMismatch: restoring a checkpoint of one
// generator kind into another fails on the section name instead of
// silently misdrawing.
func TestGeneratorCheckpointKindMismatch(t *testing.T) {
	gens, err := Build(Config{Kind: KindBursty, N: 4, Load: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	gens[0].SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	other, err := Build(Config{Kind: KindUniform, N: 4, Load: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if other[0].LoadState(d); d.Err() == nil {
		t.Fatal("bursty checkpoint restored into a Bernoulli generator")
	}
}

// hostileStateCase edits the first line of a fresh generator's
// checkpoint that starts with line into edit (which may span lines).
type hostileStateCase struct {
	cfg        Config
	line, edit string
}

// checkHostileState requires each case's generator to restore its own
// unedited checkpoint and to refuse the edited one, behind a
// recomputed checksum.
func checkHostileState(t *testing.T, cases []hostileStateCase) {
	t.Helper()
	for _, tc := range cases {
		gens, err := Build(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		e := ckpt.NewEncoder(&buf)
		gens[0].SaveState(e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		body := text[strings.Index(text, "\n")+1 : strings.LastIndex(text, "checksum ")]
		i := strings.Index(body, "\n"+tc.line) + 1
		if i == 0 {
			t.Fatalf("%v: checkpoint has no %q line:\n%s", tc.cfg.Kind, tc.line, text)
		}
		j := i + strings.Index(body[i:], "\n")
		load := func(body string) error {
			d, err := ckpt.NewDecoder(strings.NewReader(sealTrace(body)))
			if err != nil {
				t.Fatal(err)
			}
			gens[0].LoadState(d)
			return d.Close()
		}
		if err := load(body); err != nil {
			t.Errorf("%v: control checkpoint rejected: %v", tc.cfg.Kind, err)
		}
		if err := load(body[:i] + tc.edit + body[j:]); err == nil {
			t.Errorf("%v: %q accepted", tc.cfg.Kind, tc.edit)
		}
	}
}

// TestGeneratorRejectsNegativeDwell: a checkpoint whose ON/OFF or MMPP
// dwell counter is negative, behind a recomputed checksum, is refused.
// Next draws a new dwell only when the counter reaches zero, so such a
// generator would stay in one state for good (an ON source sending
// every slot, an MMPP stuck high).
func TestGeneratorRejectsNegativeDwell(t *testing.T) {
	checkHostileState(t, []hostileStateCase{
		{Config{Kind: KindBursty, N: 4, Load: 0.1, MeanBurst: 8, Seed: 1}, "burst ", "burst 1 -1 0"},
		{Config{Kind: KindMMPP, N: 4, Load: 0.1, MeanBurst: 8, Seed: 2}, "dwell ", "dwell 1 -1"},
		{Config{Kind: KindParetoOnOff, N: 4, Load: 0.1, MeanBurst: 8, ParetoAlpha: 1.6, Seed: 3}, "burst ", "burst 1 -1 0"},
	})
}

// TestGeneratorRejectsForeignPorts: a burst destination or a pending
// Bimodal arrival toward a port the generator was not built with, or a
// pending class past ClassControl, is refused at restore instead of
// failing the run at its first hop (or, for a class of 2^22, being
// truncated to a data cell).
func TestGeneratorRejectsForeignPorts(t *testing.T) {
	bursty := Config{Kind: KindBursty, N: 4, Load: 0.1, MeanBurst: 8, Seed: 1}
	pareto := Config{Kind: KindParetoOnOff, N: 4, Load: 0.1, MeanBurst: 8, ParetoAlpha: 1.6, Seed: 3}
	bimodal := Config{Kind: KindBimodal, N: 4, Load: 0.5, Seed: 4}
	checkHostileState(t, []hostileStateCase{
		{bursty, "burst ", "burst 1 50 4"},
		{bursty, "burst ", "burst 1 50 -1"},
		{pareto, "burst ", "burst 1 50 99999"},
		{bimodal, "pending ", "pending 1\narr 4 0"},
		{bimodal, "pending ", "pending 1\narr 1 4194304"},
	})
}
