package packet

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/units"
)

// withChecksum wraps a checkpoint body in the header and the checksum
// trailer its bytes hash to, so edited records reach the flow decoders
// instead of stopping at the checksum.
func withChecksum(body string) string {
	text := "osmosis-ckpt v2\n" + body
	h := fnv.New64a()
	_, _ = h.Write([]byte(text))
	return fmt.Sprintf("%schecksum %016x\n", text, h.Sum64())
}

// checkpointBody runs save on a fresh encoder and returns the records it
// wrote, without the header and the checksum trailer.
func checkpointBody(tb testing.TB, save func(e *ckpt.Encoder)) string {
	tb.Helper()
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	save(e)
	if err := e.Close(); err != nil {
		tb.Fatal(err)
	}
	text := buf.String()
	return text[strings.Index(text, "\n")+1 : strings.LastIndex(text, "checksum ")]
}

// loadFlowState restores an order section then an alloc section, the
// order the fabric writes them in, into a checker and an allocator for
// ports [0, 64), and checks the trailer.
func loadFlowState(in string) (*OrderChecker, *Allocator, error) {
	d, err := ckpt.NewDecoder(strings.NewReader(in))
	if err != nil {
		return nil, nil, err
	}
	o, a := NewOrderCheckerFor(0, 64), NewAllocator()
	o.LoadState(d)
	owner := func(src int) int {
		if src >= 64 {
			return -1
		}
		return 0
	}
	LoadMergedState(d, owner, a)
	return o, a, d.Close()
}

// flowStateBody is a small order + alloc body with both classes.
func flowStateBody(tb testing.TB) string {
	a, o := NewAllocator(), NewOrderCheckerFor(0, 64)
	for i := 0; i < 40; i++ {
		c := a.New(i%5, (i*3)%7, Class(i%3%2), units.Time(i))
		if i%4 != 0 {
			o.Deliver(c)
		}
	}
	return checkpointBody(tb, func(e *ckpt.Encoder) {
		o.SaveState(e)
		a.SaveState(e)
	})
}

func TestCheckTimeline(t *testing.T) {
	const max = MaxTimelineSlots
	for _, tc := range []struct {
		start, warmup, measure uint64
		ok                     bool
	}{
		{0, 0, 0, true},
		{0, max, 0, true},
		{0, 0, max, true},
		{1, max - 2, 1, true},
		{0, max, 1, false},
		{1, max, 0, false},
		{max + 1, 0, 0, false},
		{0, 1 << 63, 1 << 63, false}, // wraps to 0 in uint64
		{math.MaxUint64, math.MaxUint64, math.MaxUint64, false},
		{max, 0, math.MaxUint64, false},
	} {
		if err := CheckTimeline(tc.start, tc.warmup, tc.measure); (err == nil) != tc.ok {
			t.Errorf("CheckTimeline(%d, %d, %d) = %v, want ok=%v", tc.start, tc.warmup, tc.measure, err, tc.ok)
		}
	}
}

// TestLoadMergedStateSplitsBySource restores a run's allocator state at
// 1 → 2 and 2 → 4 allocators, each issuing the cells of a contiguous
// source range as a fabric shard does. Every restored allocator holds
// counters for its own sources only, the restored set saves the same bytes,
// and it keeps issuing the sequence numbers the uninterrupted run does.
func TestLoadMergedStateSplitsBySource(t *testing.T) {
	const hosts = 12
	owner := func(k int) func(src int) int {
		return func(src int) int {
			if src >= hosts {
				return -1
			}
			return src * k / hosts
		}
	}
	newAllocs := func(k int) []*Allocator {
		as := make([]*Allocator, k)
		for i := range as {
			as[i] = NewAllocator()
		}
		return as
	}
	whole := NewAllocator()
	issue := func(as []*Allocator, from, to int) {
		t.Helper()
		own := owner(len(as))
		for i := from; i < to; i++ {
			src, dst, class := i%hosts, (i*5+3)%hosts, Class(i%3%2)
			got := as[own(src)].New(src, dst, class, units.Time(i))
			if want := whole.New(src, dst, class, units.Time(i)); got.Seq != want.Seq {
				t.Fatalf("cell %d (%d->%d %v): seq %d, uninterrupted run %d", i, src, dst, class, got.Seq, want.Seq)
			}
		}
	}
	allocs := newAllocs(1)
	issue(allocs, 0, 300)
	for step, k := range []int{2, 4} {
		snap := checkpointBody(t, func(e *ckpt.Encoder) { SaveMergedState(e, allocs...) })
		restored := newAllocs(k)
		d, err := ckpt.NewDecoder(strings.NewReader(withChecksum(snap)))
		if err != nil {
			t.Fatal(err)
		}
		LoadMergedState(d, owner(k), restored...)
		if err := d.Close(); err != nil {
			t.Fatalf("restore at %d allocators: %v", k, err)
		}
		for i, a := range restored {
			for src, v := range a.next {
				if v != 0 && src*k/hosts != i {
					t.Errorf("restore at %d: allocator %d holds the counter of source %d", k, i, src)
				}
			}
		}
		if got := checkpointBody(t, func(e *ckpt.Encoder) { SaveMergedState(e, restored...) }); got != snap {
			t.Fatalf("restore at %d re-saves differently:\n%s\nwant\n%s", k, got, snap)
		}
		allocs = restored
		issue(allocs, 300*(step+1), 300*(step+2))
	}
}

// TestFlowDecodersEnforce32BitRange: a source counter past the 32-bit
// range is refused, as is an order flow value at or past it (the
// checker stores lastSeq+1); so are records repeated or out of order,
// sources and destinations past the ports, a zero counter, the retired
// per-flow "flow" record, and a cell whose sequence number the tables
// cannot hold.
func TestFlowDecodersEnforce32BitRange(t *testing.T) {
	body := flowStateBody(t)
	if _, _, err := loadFlowState(withChecksum(body)); err != nil {
		t.Fatalf("unedited body: %v", err)
	}
	for _, tc := range []struct {
		name, old, new string
		ok             bool
	}{
		{"alloc source at 2^32-1", "source 0 8", "source 0 4294967295", true},
		{"alloc source at 2^32", "source 0 8", "source 0 4294967296", false},
		{"alloc source at 2^64-1", "source 0 8", "source 0 18446744073709551615", false},
		{"alloc source zero counter", "source 0 8", "source 0 0", false},
		{"order flow at 2^32-2", "oflow 0 0 0 7", "oflow 0 0 0 4294967294", true},
		{"order flow at 2^32-1", "oflow 0 0 0 7", "oflow 0 0 0 4294967295", false},
		{"order flow at 2^64-1", "oflow 0 0 0 7", "oflow 0 0 0 18446744073709551615", false},
		{"alloc sources out of order", "source 0 8\nsource 1 8", "source 1 8\nsource 0 8", false},
		{"alloc source repeated", "source 1 8", "source 0 8", false},
		{"alloc source negative", "source 0 8", "source -1 8", false},
		{"order flow repeated", "oflow 0 6 0 6", "oflow 0 5 1 5", false},
		{"alloc source past the ports", "source 4 8", "source 64 8", false},
		{"order flow source past the ports", "oflow 4 6 0 1", "oflow 64 6 0 1", false},
		{"order flow destination past the ports", "oflow 4 6 0 1", "oflow 4 64 0 1", false},
		{"retired per-flow alloc record", "source 0 8", "flow 0 0 0 8", false},
		{"order flow class truncating to 0", "oflow 4 6 0 1", "oflow 4 6 4194304 1", false},
	} {
		if !strings.Contains(body, tc.old) {
			t.Fatalf("%s: body lacks %q:\n%s", tc.name, tc.old, body)
		}
		in := withChecksum(strings.Replace(body, tc.old, tc.new, 1))
		o, a, err := loadFlowState(in)
		if (err == nil) != tc.ok {
			t.Errorf("%s: load error %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err == nil {
			if got := withChecksum(checkpointBody(t, func(e *ckpt.Encoder) { o.SaveState(e); a.SaveState(e) })); got != in {
				t.Errorf("%s: accepted body re-encodes differently:\n%s\nwant\n%s", tc.name, got, in)
			}
		}
	}

	// A checkpoint written before sequence numbers became per source is
	// refused with an error that names the retired record.
	old := withChecksum(strings.Replace(body, "source 0 8", "flow 0 1 0 3", 1))
	if _, _, err := loadFlowState(old); err == nil || !strings.Contains(err.Error(), `"flow"`) {
		t.Errorf("per-flow alloc section: error %v, want one naming the retired \"flow\" record", err)
	}

	cell := func(seq uint64) string {
		return checkpointBody(t, func(e *ckpt.Encoder) { SaveCell(e, &Cell{ID: 1, Seq: seq}) })
	}
	for seq, ok := range map[uint64]bool{math.MaxUint32 - 1: true, math.MaxUint32: false, math.MaxUint64: false} {
		d, err := ckpt.NewDecoder(strings.NewReader(withChecksum(cell(seq))))
		if err != nil {
			t.Fatal(err)
		}
		if LoadCell(d, 2); (d.Err() == nil) != ok {
			t.Errorf("LoadCell with seq %d: error %v, want ok=%v", seq, d.Err(), ok)
		}
	}
}

// FuzzFlowState feeds arbitrary order and alloc sections to the flow
// decoders: every input is either rejected with an error or restores a
// checker and an allocator that save back byte for byte, and nothing
// panics.
func FuzzFlowState(f *testing.F) {
	body := flowStateBody(f)
	f.Add(body)
	for _, edit := range [][2]string{
		{"source 0 8", "source 0 4294967295"},                // the largest source counter
		{"source 0 8", "source 0 4294967296"},                // one past it
		{"oflow 0 0 0 7", "oflow 0 0 0 4294967294"},          // the largest last sequence number
		{"oflow 0 0 0 7", "oflow 0 0 0 4294967295"},          // one past it
		{"source 0 8\nsource 1 8", "source 1 8\nsource 0 8"}, // out of order
		{"source 0 8", "source 0 0"},                         // a zero counter
		{"oflow 4 6 0 1", "oflow 16777215 6 0 1"},            // a source far past the ports
		{"oflow 4 6 0 1", "oflow 4 64 0 1"},                  // a destination past the ports
		{"source 0 8", "flow 0 0 0 8"},                       // the retired per-flow record
	} {
		if !strings.Contains(body, edit[0]) {
			f.Fatalf("seed body lacks %q:\n%s", edit[0], body)
		}
		f.Add(strings.Replace(body, edit[0], edit[1], 1))
	}
	f.Fuzz(func(t *testing.T, body string) {
		in := withChecksum(body)
		o, a, err := loadFlowState(in)
		if err != nil {
			return
		}
		var out bytes.Buffer
		e := ckpt.NewEncoder(&out)
		o.SaveState(e)
		a.SaveState(e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if out.String() != in {
			t.Fatalf("accepted input does not round-trip:\n in: %q\nout: %q", in, out.String())
		}
	})
}
