package traffic

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
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

// TestTraceRoundTripAllocs pins the allocations of a Write → ReadTrace
// round trip per event. The container's checksum folds each line in
// place and the decoder slices its lines out of one copy of the file,
// so neither side copies a line.
func TestTraceRoundTripAllocs(t *testing.T) {
	tr, err := RecordTrace(Config{Kind: KindUniform, N: 8, Load: 0.6, Seed: 3}, 500)
	if err != nil {
		t.Fatal(err)
	}
	events := float64(len(tr.Events))
	var buf bytes.Buffer
	write := testing.AllocsPerRun(5, func() {
		buf.Reset()
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
	}) / events
	read := testing.AllocsPerRun(5, func() {
		if _, err := ReadTrace(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	}) / events
	if write > 3 || read > 3 {
		t.Errorf("%.2f allocations per event on write and %.2f on read, want at most 3 and 3", write, read)
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

// sealTrace wraps a trace section in the container's header and the
// checksum trailer its bytes hash to, so an edited record reaches the
// trace checks instead of stopping at the checksum.
func sealTrace(body string) string {
	text := "osmosis-ckpt v2\n" + body
	h := fnv.New64a()
	_, _ = h.Write([]byte(text))
	return fmt.Sprintf("%schecksum %016x\n", text, h.Sum64())
}

// goodTraceBody is a valid trace section: two ports at slot 0 (one of
// them control), one at slot 5.
const goodTraceBody = "begin trace\nn 4\nslots 100\ne 0 0 1 0\ne 0 2 3 1\ne 5 1 0 0\nend trace\n"

// traceCase is one input to ReadTrace: a trace section that is sealed
// before reading, or (seal false) a whole file read as it is.
type traceCase struct {
	name string
	text string
	seal bool
}

// input returns the bytes ReadTrace sees.
func (c traceCase) input() string {
	if c.seal {
		return sealTrace(c.text)
	}
	return c.text
}

// traceRejections lists corrupted and hostile traces; each must be
// refused with an error.
func traceRejections(tb testing.TB) []traceCase {
	tb.Helper()
	good := sealTrace(goodTraceBody)
	cases := []traceCase{
		{name: "empty"},
		{name: "v1 file", text: "osmosis-trace v1 n=4 slots=1 events=1\n0 0 1 0\n"},
		{name: "v1 2^62 event count", text: "osmosis-trace v1 n=4 slots=1 events=4611686018427387904\n"},
		{name: "future container version", text: strings.Replace(good, "osmosis-ckpt v2", "osmosis-ckpt v3", 1)},
		{name: "checksum mismatch", text: strings.Replace(good, "e 5 1 0 0", "e 5 1 2 0", 1)},
		{name: "truncated", text: good[:strings.Index(good, "end trace")]},
		{name: "trailing bytes", text: good + "e 6 0 1 0\n"},
		{name: "other section", text: "begin latency\nend latency\n", seal: true},
		{name: "unclosed section", text: strings.TrimSuffix(goodTraceBody, "end trace\n"), seal: true},
	}
	for _, edit := range []struct{ name, from, to string }{
		{"zero ports", "n 4", "n 0"},
		{"ports past int", "n 4", "n 9223372036854775808"},
		{"missing slots", "slots 100\n", ""},
		{"event count record", "slots 100\n", "slots 100\nevents 3\n"},
		{"short event", "e 5 1 0 0", "e 5 1"},
		{"extra field", "e 5 1 0 0", "e 5 1 0 0 0"},
		{"non-numeric field", "e 5 1 0 0", "e 5 1 x 0"},
		{"non-canonical token", "e 5 1 0 0", "e 05 1 0 0"},
		{"negative field", "e 5 1 0 0", "e 5 -1 0 0"},
		{"class out of range", "e 5 1 0 0", "e 5 1 0 2"},
		{"slot beyond declared", "e 5 1 0 0", "e 100 1 0 0"},
		{"port out of range", "e 5 1 0 0", "e 5 4 0 0"},
		{"dst out of range", "e 5 1 0 0", "e 5 1 9 0"},
		{"port 2^64-1 after slot 0", "e 5 1 0 0", "e 5 18446744073709551615 0 0"},
		{"dst 2^64-1 after slot 0", "e 5 1 0 0", "e 5 1 18446744073709551615 0"},
		{"unsorted events", "e 5 1 0 0", "e 5 1 0 0\ne 4 0 1 0"},
		{"ports unsorted in a slot", "e 0 0 1 0\ne 0 2 3 1", "e 0 2 3 1\ne 0 0 1 0"},
		{"duplicate slot-port", "e 5 1 0 0", "e 5 1 0 0\ne 5 1 2 0"},
	} {
		if !strings.Contains(goodTraceBody, edit.from) {
			tb.Fatalf("%s: good body lacks %q", edit.name, edit.from)
		}
		cases = append(cases, traceCase{name: edit.name, text: strings.Replace(goodTraceBody, edit.from, edit.to, 1), seal: true})
	}
	return cases
}

// TestReadTraceRejections covers the validator: each corruption must be
// refused with an error, and a v1 file with one that names the format.
func TestReadTraceRejections(t *testing.T) {
	for _, c := range traceRejections(t) {
		if _, err := ReadTrace(strings.NewReader(c.input())); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	_, err := ReadTrace(strings.NewReader("osmosis-trace v1 n=4 slots=1 events=1\n0 0 1 0\n"))
	if err == nil || !strings.Contains(err.Error(), "osmosis-trace v1") {
		t.Errorf("v1 file: error %v does not name the retired format", err)
	}

	// Sanity: the uncorrupted text still parses.
	tr, err := ReadTrace(strings.NewReader(sealTrace(goodTraceBody)))
	if err != nil {
		t.Fatalf("pristine trace rejected: %v", err)
	}
	if tr.N != 4 || tr.Slots != 100 || len(tr.Events) != 3 || tr.Events[1] != (TraceEvent{Slot: 0, Port: 2, Dst: 3, Class: ClassControl}) {
		t.Errorf("pristine trace parsed as %+v", tr)
	}
}

// FuzzReadTrace: every input is rejected with an error, or it re-encodes
// byte for byte and each of its events replays at its slot.
func FuzzReadTrace(f *testing.F) {
	f.Add(goodTraceBody, true)
	for _, c := range traceRejections(f) {
		f.Add(c.text, c.seal)
	}
	f.Fuzz(func(t *testing.T, text string, seal bool) {
		in := traceCase{text: text, seal: seal}.input()
		tr, err := ReadTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatal(err)
		}
		if out.String() != in {
			t.Fatalf("accepted input does not round-trip:\n in: %q\nout: %q", in, out.String())
		}
		if tr.N > 1<<12 {
			return // a valid header, but too many players to build here
		}
		gens := tr.Generators()
		for _, e := range tr.Events {
			a, ok := gens[e.Port].Next(e.Slot)
			if !ok || a.Dst != e.Dst || a.Class != e.Class {
				t.Fatalf("event %+v replayed as %+v, %v", e, a, ok)
			}
		}
	})
}

var updateGolden = flag.Bool("update", false, "rewrite the golden trace under testdata")

// TestGoldenTraceFile pins the trace bytes: a recorded bimodal workload
// (both classes) must write exactly testdata/bimodal4.trace, and the
// file must replay the live generators' arrivals. Regenerate after a
// deliberate format change with
//
//	go test ./internal/traffic -run TestGoldenTraceFile -update
func TestGoldenTraceFile(t *testing.T) {
	const slots = 64
	cfg := Config{Kind: KindBimodal, N: 4, Load: 0.6, ControlShare: 0.25, Seed: 7}
	tr, err := RecordTrace(cfg, slots)
	if err != nil {
		t.Fatal(err)
	}
	var live bytes.Buffer
	if err := tr.Write(&live); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "bimodal4.trace")
	if *updateGolden {
		if err := os.WriteFile(path, live.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), golden) {
		t.Fatalf("recorded trace no longer writes %s byte for byte (rerun with -update only for a deliberate format change)", path)
	}
	if !bytes.Contains(golden, []byte(" 1\n")) {
		t.Fatalf("%s holds no control-class event", path)
	}
	parsed, err := ReadTrace(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	gens, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, got := replayArrivals(gens, slots), replayArrivals(parsed.Generators(), slots)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("golden replays %d events, live generators make %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: golden %+v, live %+v", i, got[i], want[i])
		}
	}
}
