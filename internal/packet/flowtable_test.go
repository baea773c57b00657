package packet

import (
	"reflect"
	"testing"
)

type flowKey struct {
	src, dst int
	class    Class
}

// touchFlows fills a table at least 101 wide with mixed-class flows
// whose first touches come in a scrambled order: high destinations
// before low ones, control rows for only some sources.
func touchFlows(t *flowTable) map[flowKey]uint32 {
	want := map[flowKey]uint32{}
	for i := 0; i < 300; i++ {
		k := flowKey{src: (i * 7) % 13, dst: (i * 37) % 101, class: Class(i % 3 % 2)}
		*t.slot(k.src, k.dst, k.class) += uint32(i + 1)
		want[k] += uint32(i + 1)
	}
	return want
}

// TestFlowTableRowsAtWidth: every row is allocated once, exactly the
// table width long, whatever order its flows are first touched in, and
// data-only flows never allocate a control row.
func TestFlowTableRowsAtWidth(t *testing.T) {
	ft := flowTable{width: 101}
	touchFlows(&ft)
	for src, pair := range ft.rows {
		for class, row := range pair {
			if row != nil && len(row) != ft.width {
				t.Errorf("row (src %d, class %d) has %d slots, want %d", src, class, len(row), ft.width)
			}
		}
	}
	one := flowTable{width: 128}
	p := one.slot(0, 100, Data)
	*p = 7
	one.slot(0, 3, Data)
	one.slot(0, 127, Data)
	if got := len(one.rows[0][Data]); got != 128 {
		t.Errorf("row has %d slots, want 128", got)
	}
	if *one.slot(0, 100, Data) != 7 {
		t.Error("a later touch reallocated the row")
	}
	if one.rows[0][Control] != nil {
		t.Error("data-only flows allocated a control row")
	}
}

// TestFlowTableEachOrder: eachFrom over ascending sources visits every
// nonzero flow once, in (src, dst, class) order.
func TestFlowTableEachOrder(t *testing.T) {
	ft := flowTable{width: 101}
	want := touchFlows(&ft)
	var prev *flowKey
	seen := map[flowKey]uint32{}
	visit := func(src, dst int, class Class, v uint32) {
		k := flowKey{src, dst, class}
		if prev != nil {
			p := *prev
			if !(p.src < k.src || p.src == k.src && (p.dst < k.dst || p.dst == k.dst && p.class < k.class)) {
				t.Fatalf("each visited %v after %v; want (src, dst, class) order", k, p)
			}
		}
		prev = &k
		seen[k] = v
	}
	for src := range ft.rows {
		ft.eachFrom(src, visit)
	}
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
	ft := flowTable{width: 101}
	want := touchFlows(&ft)
	if got := ft.count(); got != uint64(len(want)) {
		t.Errorf("count = %d, want %d", got, len(want))
	}
}
