package packet

import (
	"math/bits"
	"reflect"
	"testing"
)

type flowKey struct {
	src, dst int
	class    Class
}

// touchFlows fills a table with mixed-class flows whose first touches
// come in a scrambled order: high destinations before low ones, control
// rows for only some sources.
func touchFlows(t *flowTable) map[flowKey]uint32 {
	want := map[flowKey]uint32{}
	for i := 0; i < 300; i++ {
		k := flowKey{src: (i * 7) % 13, dst: (i * 37) % 101, class: Class(i % 3 % 2)}
		*t.slot(k.src, k.dst, k.class) += uint32(i + 1)
		want[k] += uint32(i + 1)
	}
	return want
}

func TestFlowTableRowsArePowersOfTwo(t *testing.T) {
	var ft flowTable
	touchFlows(&ft)
	for src, pair := range ft.rows {
		for class, row := range pair {
			if n := len(row); n != 0 && (n < minFlowRow || bits.OnesCount(uint(n)) != 1) {
				t.Errorf("row (src %d, class %d) has %d slots, want a power of two >= %d", src, class, n, minFlowRow)
			}
		}
	}
	// A row is the smallest power of two covering its highest
	// destination, whatever order the flows arrived in.
	var one flowTable
	one.slot(0, 100, Data)
	one.slot(0, 3, Data)
	one.slot(0, 127, Data)
	if got := len(one.rows[0][Data]); got != 128 {
		t.Errorf("row for destinations up to 127 has %d slots, want 128", got)
	}
	if one.rows[0][Control] != nil {
		t.Error("data-only flows allocated a control row")
	}
	one.slot(0, 128, Data)
	if got := len(one.rows[0][Data]); got != 256 {
		t.Errorf("row for destination 128 has %d slots, want 256", got)
	}
}

func TestFlowTableEachOrder(t *testing.T) {
	var ft flowTable
	want := touchFlows(&ft)
	var prev *flowKey
	seen := map[flowKey]uint32{}
	ft.each(func(src, dst int, class Class, v uint32) {
		k := flowKey{src, dst, class}
		if prev != nil {
			p := *prev
			if !(p.src < k.src || p.src == k.src && (p.dst < k.dst || p.dst == k.dst && p.class < k.class)) {
				t.Fatalf("each visited %v after %v; want (src, dst, class) order", k, p)
			}
		}
		prev = &k
		seen[k] = v
	})
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("each visited %d flows, want %d", len(seen), len(want))
	}
	classes := map[Class]bool{}
	for k := range want {
		classes[k.class] = true
	}
	if !classes[Data] || !classes[Control] {
		t.Fatal("test table lacks one of the classes")
	}
}

func TestFlowTableCount(t *testing.T) {
	var ft flowTable
	want := touchFlows(&ft)
	if got := ft.count(); got != uint64(len(want)) {
		t.Errorf("count = %d, want %d", got, len(want))
	}
}
