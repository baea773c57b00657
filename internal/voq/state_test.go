package voq

import (
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/packet"
	"repro/internal/units"
)

func roundTripVOQ(t *testing.T, v *VOQSet) *VOQSet {
	t.Helper()
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	v.SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	fresh := NewVOQSet(v.n)
	d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	if err := fresh.LoadState(d); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return fresh
}

func TestVOQSetCheckpointRoundTrip(t *testing.T) {
	alloc := packet.NewAllocator()
	v := NewVOQSet(4)
	// Mixed population: both classes, several outputs, a few pops so
	// FIFO heads are nonzero, plus commitments.
	for i := 0; i < 20; i++ {
		out := i % 4
		class := packet.Data
		if i%3 == 0 {
			class = packet.Control
		}
		v.Push(alloc.New(0, out, class, units.Time(i)), out)
	}
	v.Pop(0)
	v.Pop(1)
	v.Commit(2)
	v.Commit(2)
	v.Commit(3)

	fresh := roundTripVOQ(t, v)
	if fresh.Depth() != v.Depth() {
		t.Fatalf("depth %d, want %d", fresh.Depth(), v.Depth())
	}
	for out := 0; out < 4; out++ {
		if fresh.Backlog(out) != v.Backlog(out) || fresh.Uncommitted(out) != v.Uncommitted(out) {
			t.Fatalf("output %d: backlog/uncommitted %d/%d, want %d/%d",
				out, fresh.Backlog(out), fresh.Uncommitted(out), v.Backlog(out), v.Uncommitted(out))
		}
	}
	// Drain both completely: identical cells in identical order.
	for out := 0; out < 4; out++ {
		for {
			a, b := v.Pop(out), fresh.Pop(out)
			if (a == nil) != (b == nil) {
				t.Fatalf("output %d: drain length diverged", out)
			}
			if a == nil {
				break
			}
			if a.ID != b.ID || a.Seq != b.Seq || a.Class != b.Class || a.Created != b.Created {
				t.Fatalf("output %d: cell diverged: %v vs %v", out, a, b)
			}
		}
	}
}

func TestEgressCheckpointRoundTrip(t *testing.T) {
	alloc := packet.NewAllocator()
	eg := new(Egress)
	for i := 0; i < 7; i++ {
		eg.Receive(alloc.New(1, 2, packet.Data, units.Time(i)))
	}
	eg.Drain()
	eg.Drain()

	var buf strings.Builder
	enc := ckpt.NewEncoder(&buf)
	eg.SaveState(enc)
	if err := enc.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	fresh := new(Egress)
	d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	if err := fresh.LoadState(d); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if fresh.Received() != eg.Received() || fresh.Drained() != eg.Drained() || fresh.Queued() != eg.Queued() {
		t.Fatalf("counters diverged: %v vs %v", fresh, eg)
	}
	for {
		a, b := eg.Drain(), fresh.Drain()
		if (a == nil) != (b == nil) {
			t.Fatal("drain length diverged")
		}
		if a == nil {
			break
		}
		if a.ID != b.ID {
			t.Fatalf("cell order diverged: %v vs %v", a, b)
		}
	}
}

func TestVOQLoadRejectsWrongShape(t *testing.T) {
	v := NewVOQSet(4)
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	v.SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	other := NewVOQSet(8)
	d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadState(d); err == nil {
		t.Fatal("4-output VOQ checkpoint restored into 8-output set")
	}
}

// TestDeepQueueCheckpointRoundTrip saves and restores a VOQ set whose
// data and control queues toward one output hold 10k cells between
// them. The encoders walk each queue once in order, so the save is
// linear in the queue depth, and the restored queue must pop the same
// cells in the same order, control first.
func TestDeepQueueCheckpointRoundTrip(t *testing.T) {
	const deep = 10000
	alloc := packet.NewAllocator()
	v := NewVOQSet(4)
	for i := 0; i < deep; i++ {
		class := packet.Data
		if i%5 == 0 {
			class = packet.Control
		}
		v.Push(alloc.New(0, 3, class, units.Time(i)), 3)
	}
	v.Pop(3)
	v.Commit(3)

	fresh := roundTripVOQ(t, v)
	if fresh.Depth() != deep-1 || fresh.Backlog(3) != deep-1 || fresh.Uncommitted(3) != deep-2 {
		t.Fatalf("restored depth/backlog/uncommitted %d/%d/%d, want %d/%d/%d",
			fresh.Depth(), fresh.Backlog(3), fresh.Uncommitted(3), deep-1, deep-1, deep-2)
	}
	for i := 0; ; i++ {
		a, b := v.Pop(3), fresh.Pop(3)
		if (a == nil) != (b == nil) {
			t.Fatalf("pop %d: drain length diverged", i)
		}
		if a == nil {
			if i != deep-1 {
				t.Fatalf("drained %d cells, want %d", i, deep-1)
			}
			break
		}
		if a.ID != b.ID || a.Seq != b.Seq || a.Class != b.Class || a.Created != b.Created {
			t.Fatalf("pop %d: cell diverged: %v vs %v", i, a, b)
		}
	}
}
