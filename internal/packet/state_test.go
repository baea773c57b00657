package packet

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/units"
)

// TestAllocatorCheckpointIdentityContinues: a restored allocator hands
// out exactly the IDs and per-source sequence numbers the uninterrupted
// one would, regardless of its free list (which is deliberately not
// serialized).
func TestAllocatorCheckpointIdentityContinues(t *testing.T) {
	orig := NewAllocator()
	var retired []*Cell
	for i := 0; i < 50; i++ {
		c := orig.New(i%4, (i+1)%4, Class(i%2), units.Time(i))
		if i%3 == 0 {
			retired = append(retired, c)
		}
	}
	for _, c := range retired {
		orig.Free(c)
	}

	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	orig.SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	twin := NewAllocator()
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
	if twin.Issued() != orig.Issued() {
		t.Fatalf("issued %d, want %d", twin.Issued(), orig.Issued())
	}
	for i := 0; i < 40; i++ {
		a := orig.New(i%5, (i+2)%5, Class(i%2), units.Time(i))
		b := twin.New(i%5, (i+2)%5, Class(i%2), units.Time(i))
		if a.ID != b.ID || a.Seq != b.Seq {
			t.Fatalf("identity diverged at %d: id %d/%d seq %d/%d", i, a.ID, b.ID, a.Seq, b.Seq)
		}
	}
}

func TestOrderCheckerCheckpointRoundTrip(t *testing.T) {
	alloc := NewAllocator()
	orig := NewOrderCheckerFor(0, 3)
	var cells []*Cell
	for i := 0; i < 60; i++ {
		cells = append(cells, alloc.New(i%3, (i+1)%3, Class(i%2), units.Time(i)))
	}
	// Deliver most in order, two out of order (violations), leave a gap.
	for i, c := range cells {
		if i == 10 || i == 25 {
			continue
		}
		orig.Deliver(c)
	}
	orig.Deliver(cells[10]) // late: violation
	if orig.Violations() == 0 {
		t.Fatal("test setup: expected at least one violation")
	}

	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	orig.SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	twin := NewOrderCheckerFor(0, 3)
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
	if twin.delivered != orig.delivered || twin.Violations() != orig.Violations() {
		t.Fatalf("counters diverged: %d/%d vs %d/%d",
			twin.delivered, twin.Violations(), orig.delivered, orig.Violations())
	}
	// The other late cell must be judged identically by both.
	a, b := orig.Deliver(cells[25]), twin.Deliver(cells[25])
	if a != b || orig.Violations() != twin.Violations() {
		t.Fatalf("post-restore judgement diverged: %v/%v violations %d/%d",
			a, b, orig.Violations(), twin.Violations())
	}
}

// TestOrderCheckerMergedStateMatchesWhole splits the destination space
// across range checkers (one of them empty) the way the fabric's shards
// do: the ranges must judge every delivery as one whole-range checker
// does, save to the same bytes, and, restored split, keep judging alike.
func TestOrderCheckerMergedStateMatchesWhole(t *testing.T) {
	const ports = 12
	whole := NewOrderCheckerFor(0, ports)
	ranges := []*OrderChecker{NewOrderCheckerFor(0, 5), NewOrderCheckerFor(0, 0), NewOrderCheckerFor(5, ports)}
	owner := func(cs []*OrderChecker, dst int) *OrderChecker {
		if dst < 5 {
			return cs[0]
		}
		return cs[2]
	}
	alloc := NewAllocator()
	var late []*Cell
	for i := 0; i < 400; i++ {
		c := alloc.New(i%7, (i*5)%ports, Class(i%2), units.Time(i))
		if i%9 == 0 {
			late = append(late, c) // delivered after its successors
			continue
		}
		if a, b := whole.Deliver(c), owner(ranges, c.Dst).Deliver(c); a != b {
			t.Fatalf("cell %d: whole judged %v, range %v", i, a, b)
		}
	}
	for _, c := range late[:len(late)/2] {
		if a, b := whole.Deliver(c), owner(ranges, c.Dst).Deliver(c); a != b {
			t.Fatalf("late cell %v: whole judged %v, range %v", c, a, b)
		}
	}
	if whole.Violations() == 0 {
		t.Fatal("test setup: expected violations")
	}
	if got := len(ranges[2].last.rows[0][Data]); got != ports-5 {
		t.Errorf("range checker row holds %d destinations, want exactly %d", got, ports-5)
	}

	save := func(cs ...*OrderChecker) string {
		var buf strings.Builder
		e := ckpt.NewEncoder(&buf)
		SaveMergedOrderState(e, cs...)
		if err := e.Close(); err != nil {
			t.Fatalf("save: %v", err)
		}
		return buf.String()
	}
	snap := save(ranges...)
	if want := save(whole); snap != want {
		t.Fatalf("merged range checkers saved\n%s\nwhole checker\n%s", snap, want)
	}

	restored := []*OrderChecker{NewOrderCheckerFor(0, 5), NewOrderCheckerFor(0, 0), NewOrderCheckerFor(5, ports)}
	d, err := ckpt.NewDecoder(strings.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	LoadSplitOrderState(d, restored...)
	if err := d.Close(); err != nil {
		t.Fatalf("load: %v", err)
	}
	if got := save(restored...); got != snap {
		t.Fatalf("restored checkers re-save differently:\n%s\nwant\n%s", got, snap)
	}
	for _, c := range late[len(late)/2:] {
		if a, b := whole.Deliver(c), owner(restored, c.Dst).Deliver(c); a != b {
			t.Fatalf("post-restore cell %v: whole judged %v, range %v", c, a, b)
		}
	}

	// A flow toward a destination no checker covers is refused.
	d, err = ckpt.NewDecoder(strings.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if LoadSplitOrderState(d, NewOrderCheckerFor(0, 5)); d.Err() == nil {
		t.Fatal("flows toward destinations 5.. restored into a checker for [0, 5)")
	}
}

func TestCellCodecRoundTripAndPayloadRejection(t *testing.T) {
	c := &Cell{ID: 7, Src: 1, Dst: 2, Class: Control, Seq: 9,
		Created: 100, Injected: 110, Delivered: 0, Hops: 3, Retransmits: 1}
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	e.Begin("cells")
	SaveCell(e, c)
	e.End("cells")
	if err := e.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	d.Begin("cells")
	got := LoadCell(d, 3)
	d.End("cells")
	if err := d.Close(); err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("cell diverged: %+v vs %+v", got, c)
	}

	// Ports and the class are checked on the whole token: a class of
	// 2^22 is refused, not truncated to 8 bits as class 0.
	for _, tc := range []struct{ name, old, new string }{
		{"source past the ports", "cell 7 1 2", "cell 7 3 2"},
		{"negative destination", "cell 7 1 2", "cell 7 1 -1"},
		{"class truncating to 0", "cell 7 1 2 1", "cell 7 1 2 4194304"},
	} {
		d, err := ckpt.NewDecoder(strings.NewReader(withChecksum(strings.Replace(checkpointBody(t, func(e *ckpt.Encoder) { SaveCell(e, c) }), tc.old, tc.new, 1))))
		if err != nil {
			t.Fatal(err)
		}
		LoadCell(d, 3)
		if err := d.Close(); err == nil || !strings.Contains(err.Error(), `record "cell"`) {
			t.Errorf("%s: error %v, want the cell record refused", tc.name, err)
		}
	}
}
