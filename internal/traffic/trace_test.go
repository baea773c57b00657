package traffic

import (
	"bytes"
	"strings"
	"testing"
)

// replayArrivals runs a generator set for slots slots and flattens every
// arrival into a comparable event list.
func replayArrivals(gens []Generator, slots uint64) []TraceEvent {
	var out []TraceEvent
	for s := uint64(0); s < slots; s++ {
		for p, g := range gens {
			if a, ok := g.Next(s); ok {
				out = append(out, TraceEvent{Slot: s, Port: p, Dst: a.Dst, Class: a.Class})
			}
		}
	}
	return out
}

// TestTraceRoundTrip proves the record/replay loop byte-identical: a
// recorded workload serializes, parses back, replays the exact same
// arrival sequence, and re-serializes to the same bytes.
func TestTraceRoundTrip(t *testing.T) {
	const slots = 4000
	for _, cfg := range buildableKinds(8, 0.6) {
		cfg := cfg
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			tr, err := RecordTrace(cfg, slots)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tr.Write(&buf); err != nil {
				t.Fatal(err)
			}
			first := buf.String()

			parsed, err := ReadTrace(strings.NewReader(first))
			if err != nil {
				t.Fatal(err)
			}
			if parsed.N != tr.N || parsed.Slots != tr.Slots || len(parsed.Events) != len(tr.Events) {
				t.Fatalf("header drift: %d/%d/%d vs %d/%d/%d",
					parsed.N, parsed.Slots, len(parsed.Events), tr.N, tr.Slots, len(tr.Events))
			}

			// Replay through the player must reproduce the generator's
			// arrivals bit-exactly.
			replayed := replayArrivals(parsed.Generators(), slots)
			if len(replayed) != len(tr.Events) {
				t.Fatalf("replay produced %d events, recorded %d", len(replayed), len(tr.Events))
			}
			for i := range replayed {
				if replayed[i] != tr.Events[i] {
					t.Fatalf("event %d: replayed %+v recorded %+v", i, replayed[i], tr.Events[i])
				}
			}

			// And a rewrite of the parsed trace is byte-identical.
			var buf2 bytes.Buffer
			if err := parsed.Write(&buf2); err != nil {
				t.Fatal(err)
			}
			if buf2.String() != first {
				t.Fatal("serialize -> parse -> serialize is not byte-identical")
			}
		})
	}
}

// TestTraceBuildKind checks the KindTrace path through Build and that a
// second replay pass (fresh Generators call) matches the first.
func TestTraceBuildKind(t *testing.T) {
	tr, err := RecordTrace(Config{Kind: KindBursty, N: 4, Load: 0.7, Seed: 5}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := Build(Config{Kind: KindTrace, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Build(Config{Kind: KindTrace, N: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	a1 := replayArrivals(g1, 2000)
	a2 := replayArrivals(g2, 2000)
	if len(a1) != len(a2) || len(a1) != len(tr.Events) {
		t.Fatalf("replay lengths %d/%d, recorded %d", len(a1), len(a2), len(tr.Events))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("replay passes diverged at event %d", i)
		}
	}
	if _, err := Build(Config{Kind: KindTrace, N: 8, Trace: tr}); err == nil {
		t.Error("port-count mismatch accepted")
	}
}

// TestTracePlayerSkipsSlots: a harness sampling only every other slot
// must see exactly the arrivals of the slots it asked about.
func TestTracePlayerSkipsSlots(t *testing.T) {
	tr := &Trace{N: 1, Slots: 10, Events: []TraceEvent{
		{Slot: 1, Port: 0, Dst: 0, Class: ClassData},
		{Slot: 2, Port: 0, Dst: 0, Class: ClassControl},
		{Slot: 4, Port: 0, Dst: 0, Class: ClassData},
	}}
	g := tr.Generators()[0]
	for _, step := range []struct {
		slot uint64
		want bool
	}{{0, false}, {2, true}, {3, false}, {4, true}, {9, false}} {
		if _, ok := g.Next(step.slot); ok != step.want {
			t.Errorf("slot %d: arrival %v want %v", step.slot, ok, step.want)
		}
	}
}

// TestReadTraceRejections covers the validator: each corruption must be
// refused with an error.
func TestReadTraceRejections(t *testing.T) {
	tr, err := RecordTrace(Config{Kind: KindUniform, N: 4, Load: 0.5, Seed: 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	lines := strings.Split(strings.TrimSuffix(good, "\n"), "\n")

	cases := []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"bad magic", strings.Replace(good, traceMagic, "not-a-trace", 1)},
		{"future version", strings.Replace(good, " v1 ", " v2 ", 1)},
		{"missing header field", strings.Replace(good, " events=", " count=", 1)},
		{"zero ports", strings.Replace(good, " n=4 ", " n=0 ", 1)},
		{"event count mismatch", strings.Replace(good, "events=", "events=1", 1)},
		{"2^62 event count", "osmosis-trace v1 n=4 slots=1 events=4611686018427387904\n"},
		{"short line", good + "3 1\n"},
		{"non-numeric field", good + "3 1 x 0\n"},
		{"class out of range", lines[0] + "\n99 0 1 7\n"},
		{"slot beyond header", lines[0] + "\n200 0 1 0\n"},
		{"dst out of range", lines[0] + "\n0 0 9 0\n"},
		{"unsorted events", lines[0] + "\n5 0 1 0\n4 0 1 0\n"},
		{"duplicate slot-port", lines[0] + "\n5 0 1 0\n5 0 2 0\n"},
	}
	for _, tc := range cases {
		if _, err := ReadTrace(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}

	// Sanity: the uncorrupted text still parses.
	if _, err := ReadTrace(strings.NewReader(good)); err != nil {
		t.Errorf("pristine trace rejected: %v", err)
	}
}
