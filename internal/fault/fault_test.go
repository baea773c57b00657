package fault

import (
	"reflect"
	"testing"
)

var testDims = Dims{Ports: 64, Receivers: 2, Fibers: 16, Links: 64}

func TestParseSpecClauses(t *testing.T) {
	spec, err := ParseSpec("rx:3@2000, soaoff:5.1.2@100+50, ber:0=1e-4@5000+1000, credit:7=3@400, stall:10@900, rand:4@1000-8000+200")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(spec.Events) != 5 {
		t.Fatalf("want 5 explicit events, got %d", len(spec.Events))
	}
	want := []Event{
		{Kind: ReceiverLoss, Egress: 3, Receiver: ReceiverHighest, Start: 2000},
		{Kind: SOAStuckOff, Egress: 5, Receiver: 1, Gate: 2, Start: 100, Duration: 50},
		{Kind: BERBurst, Link: 0, BER: 1e-4, Start: 5000, Duration: 1000},
		{Kind: CreditLoss, Link: 7, Credits: 3, Start: 400},
		{Kind: SchedStall, Start: 900, Duration: 10},
	}
	if !reflect.DeepEqual(spec.Events, want) {
		t.Fatalf("events mismatch:\n got %+v\nwant %+v", spec.Events, want)
	}
	if spec.RandomCount != 4 || spec.WindowStart != 1000 || spec.WindowEnd != 8000 || spec.RandomDuration != 200 {
		t.Fatalf("random campaign mismatch: %+v", spec)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"nope:1@0",              // unknown kind
		"rx:1",                  // missing @start
		"rx:a@0",                // bad egress
		"rx:1.2.3@0",            // rx has no gate field
		"ber:0@100+10",          // missing =value
		"ber:0=x@100+10",        // bad BER
		"stall:0@100",           // zero stall
		"rand:2@50-50",          // empty window
		"rand:1@0-9,rand:1@0-9", // duplicate rand
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", s)
		}
	}
	spec, err := ParseSpec("")
	if err != nil || len(spec.Events) != 0 || spec.RandomCount != 0 {
		t.Fatalf("empty spec: got %+v, %v", spec, err)
	}
}

func TestCompileValidatesAndResolves(t *testing.T) {
	spec, err := ParseSpec("rx:3@2000")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Compile(spec, testDims, 1)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ev := sched.Events()
	if len(ev) != 1 || ev[0].Receiver != testDims.Receivers-1 {
		t.Fatalf("ReceiverHighest not resolved: %+v", ev)
	}

	// Out-of-range targets must be rejected.
	for _, s := range []string{"rx:64@0", "rx:0.2@0", "soaoff:0.0.16@0", "ber:64=1e-4@0+10", "credit:0=0@0"} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if _, err := Compile(spec, testDims, 1); err == nil {
			t.Errorf("Compile(%q): want error, got nil", s)
		}
	}
}

// TestCompileDeterministic: the compiled schedule is a pure function of
// (spec, dims, seed) — same inputs give identical event lists, and the
// random component moves with the seed without touching explicit events.
func TestCompileDeterministic(t *testing.T) {
	spec, err := ParseSpec("rx:3@2000,rand:8@0-10000")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Compile(spec, testDims, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(spec, testDims, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same (spec, dims, seed) compiled to different schedules")
	}
	c, err := Compile(spec, testDims, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatal("different seeds compiled to identical random campaigns")
	}
	if a.Len() != 9 || c.Len() != 9 {
		t.Fatalf("want 9 events, got %d and %d", a.Len(), c.Len())
	}
	// Events must come out in canonical (Start, kind, target) order.
	ev := a.Events()
	for i := 1; i < len(ev); i++ {
		if less(ev[i], ev[i-1]) {
			t.Fatalf("schedule not sorted at %d: %v after %v", i, ev[i], ev[i-1])
		}
	}
}

func TestBoundaries(t *testing.T) {
	spec, err := ParseSpec("rx:1@100,soaoff:2.1.0@200+50,ber:0=1e-4@200+100,credit:0=1@400")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Compile(spec, testDims, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Edges: 100 (rx), 200 (soaoff+ber begin), 250 (soaoff end),
	// 300 (ber end), 400, 401 (credit loss instant).
	got := sched.Boundaries(0, 1000)
	want := []uint64{100, 200, 250, 300, 400, 401}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Boundaries: got %v, want %v", got, want)
	}
	got = sched.Boundaries(150, 350)
	want = []uint64{200, 250, 300}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Boundaries window: got %v, want %v", got, want)
	}
}

// TestInjectorTransitions drives a mixed schedule through an Injector
// with every hook an engine registers and checks ordering, lifetimes,
// and the active count. No engine models link BER bursts or credit
// loss, so those transitions are counted as skipped.
func TestInjectorTransitions(t *testing.T) {
	spec, err := ParseSpec("rx:1.1@100+50,ber:3=1e-4@100+25,credit:5=2@110,stall:7@120")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Compile(spec, testDims, 1)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(sched)
	type call struct {
		what string
		a, b int
		up   bool
	}
	var calls []call
	inj.OnReceiver(func(e, r int, up bool) { calls = append(calls, call{"rx", e, r, up}) })
	inj.OnStall(func(s uint64) { calls = append(calls, call{"stall", int(s), 0, false}) })

	if inj.Tick(99) {
		t.Fatal("transition fired before its slot")
	}
	if !inj.Tick(100) || inj.Active() != 2 {
		t.Fatalf("at 100: active=%d want 2", inj.Active())
	}
	inj.Tick(115) // credit loss: instantaneous, active count unchanged
	if inj.Active() != 2 {
		t.Fatalf("after credit loss: active=%d want 2", inj.Active())
	}
	inj.Tick(1000) // everything else
	if inj.Active() != 0 {
		t.Fatalf("final active=%d want 0", inj.Active())
	}
	if !inj.Done() || inj.NextTransition() != Permanent {
		t.Fatal("injector not done after final tick")
	}
	want := []call{
		{"rx", 1, 1, false},    // 100: receiver down
		{"stall", 7, 0, false}, // 120
		{"rx", 1, 1, true},     // 150: receiver back
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("calls:\n got %+v\nwant %+v", calls, want)
	}
	if inj.Applied != 3 || inj.Skipped != 3 {
		t.Fatalf("applied=%d skipped=%d", inj.Applied, inj.Skipped)
	}
}

// TestInjectorSkipsUnhooked: transitions with no registered hook are
// counted, not silently lost.
func TestInjectorSkipsUnhooked(t *testing.T) {
	spec, err := ParseSpec("rx:1@10,stall:5@20")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Compile(spec, testDims, 1)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(sched)
	inj.Tick(100)
	if inj.Applied != 0 || inj.Skipped != 2 {
		t.Fatalf("applied=%d skipped=%d, want 0/2", inj.Applied, inj.Skipped)
	}
}

func TestFailKReceivers(t *testing.T) {
	const ports, receivers = 64, 2
	sched, err := FailKReceivers(16, ports, receivers, 7)
	if err != nil {
		t.Fatal(err)
	}
	ev := sched.Events()
	if len(ev) != 16 {
		t.Fatalf("want 16 events, got %d", len(ev))
	}
	seen := make([]bool, ports*receivers)
	for _, e := range ev {
		if e.Kind != ReceiverLoss || e.Start != 0 || e.Duration != 0 {
			t.Fatalf("want permanent receiver loss at slot 0, got %v", e)
		}
		// k <= ports: every fault must hit the redundant receiver of a
		// distinct egress.
		if e.Receiver != receivers-1 {
			t.Fatalf("want redundant receiver %d, got %v", receivers-1, e)
		}
		id := e.Egress*receivers + e.Receiver
		if seen[id] {
			t.Fatalf("duplicate target %v", e)
		}
		seen[id] = true
	}
	// Deterministic in the seed.
	again, err := FailKReceivers(16, ports, receivers, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched.Events(), again.Events()) {
		t.Fatal("FailKReceivers not deterministic")
	}
	// k > ports wraps to the primary receiver layer.
	full, err := FailKReceivers(ports+3, ports, receivers, 7)
	if err != nil {
		t.Fatal(err)
	}
	primaries := 0
	for _, e := range full.Events() {
		if e.Receiver == 0 {
			primaries++
		}
	}
	if primaries != 3 {
		t.Fatalf("want 3 primary-receiver losses, got %d", primaries)
	}
	if _, err := FailKReceivers(ports*receivers+1, ports, receivers, 7); err == nil {
		t.Fatal("want error for k beyond receiver population")
	}
}
