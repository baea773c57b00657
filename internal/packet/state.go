// Checkpoint codecs for the packet layer: cells in flight, the
// allocators' identity counters (per source), and the order checker's
// per-flow bookkeeping. Everything a restored run needs to keep handing
// out the same IDs and sequence numbers — and to keep judging delivery
// order the same way — as its uninterrupted twin.
package packet

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/units"
)

// SaveCell writes one cell as a "cell" record.
func SaveCell(e *ckpt.Encoder, c *Cell) {
	e.Put("cell",
		ckpt.Uint(c.ID), ckpt.Int(int64(c.Src)), ckpt.Int(int64(c.Dst)),
		ckpt.Uint(uint64(c.Class)), ckpt.Uint(c.Seq),
		ckpt.Int(int64(c.Created)), ckpt.Int(int64(c.Injected)), ckpt.Int(int64(c.Delivered)),
		ckpt.Int(int64(c.Hops)), ckpt.Int(int64(c.Retransmits)))
}

// LoadCell reads one "cell" record written by SaveCell into a fresh
// cell. Its source and destination must be ports of the engine, in
// [0, ports), and its class a Class.
func LoadCell(d *ckpt.Decoder, ports int) *Cell {
	r := d.Record("cell")
	c := &Cell{
		ID:  r.Uint(),
		Src: r.IntIn(0, ports), Dst: r.IntIn(0, ports),
		Class: Class(r.UintIn(0, uint64(Control)+1)),
		// The order checker stores Seq+1 in 32 bits; no run issues a
		// sequence number this high (MaxTimelineSlots).
		Seq:     r.UintIn(0, math.MaxUint32),
		Created: units.Time(r.Int()), Injected: units.Time(r.Int()), Delivered: units.Time(r.Int()),
		Hops: r.IntIn(0, math.MaxInt), Retransmits: r.IntIn(0, math.MaxInt),
	}
	r.Done()
	return c
}

// SaveState serializes the allocator's identity state: the ID counter
// and every source's next sequence number. The free list is
// deliberately not serialized — recycling affects only which memory
// backs a cell, never its identity, so a restored allocator that
// heap-allocates produces the same run.
func (a *Allocator) SaveState(e *ckpt.Encoder) { SaveMergedState(e, a) }

// LoadState restores the allocator's identity state, replacing the
// current counters.
func (a *Allocator) LoadState(d *ckpt.Decoder) {
	LoadMergedState(d, func(int) int { return 0 }, a)
}

// SaveMergedState serializes the combined identity state of several
// allocators as one logical allocator: an "alloc" record (the ID
// counter and the record count), then one "source <src> <next>" record
// per source with a nonzero counter, in increasing src order. The
// fabric engine issues each host's cells from the allocator of the
// shard owning the host, and LoadMergedState hands each allocator only
// its own sources, so every source lives in exactly one allocator:
// taking each source's maximum counter is a disjoint union, and the
// snapshot is the same at any shard count. The ID counter is the
// allocators' maximum.
func SaveMergedState(e *ckpt.Encoder, allocs ...*Allocator) {
	var nextID uint64
	var merged []uint32
	for _, a := range allocs {
		nextID = max(nextID, a.nextID)
		if n := len(a.next); n > len(merged) {
			merged = append(merged, make([]uint32, n-len(merged))...)
		}
		for src, v := range a.next {
			merged[src] = max(merged[src], v)
		}
	}
	var n uint64
	for _, v := range merged {
		if v != 0 {
			n++
		}
	}
	e.Put("alloc", ckpt.Uint(nextID), ckpt.Uint(n))
	for src, v := range merged {
		if v != 0 {
			e.Put("source", ckpt.Int(int64(src)), ckpt.Uint(uint64(v)))
		}
	}
}

// maxSources bounds the source indices a restore accepts: the counter
// slice is sized to the largest one.
const maxSources = 1 << 24

// LoadMergedState restores a SaveMergedState snapshot into allocators
// that issue cells for disjoint sets of sources: owner(src) is the
// index in allocs of the one issuing the source's cells, or -1 when the
// engine has no such source (an error). Each allocator receives only
// its own sources' counters, so whichever allocator serves a source
// after restore continues its sequence exactly, and no counter is held
// twice. Every allocator takes the merged ID counter, so its freshly
// issued IDs never collide with IDs it handed to cells still in
// flight. IDs themselves are diagnostic — sequence numbers, which the
// order checker consumes, are the identity that must continue
// bit-exactly.
//
// Records must come in strictly increasing src order, so every section
// this accepts re-encodes byte for byte. A section holding per-flow
// "flow" records, the layout before sequence numbers were per source,
// is refused by name.
func LoadMergedState(d *ckpt.Decoder, owner func(src int) int, allocs ...*Allocator) {
	r := d.Record("alloc")
	nextID, n := r.Uint(), r.Count()
	r.Done()
	tables := make([][]uint32, len(allocs))
	prev := -1
	for i := 0; i < n; i++ {
		if d.PeekKey() == "flow" {
			d.Fail(errors.New("packet: alloc section holds a per-flow \"flow\" record, retired when sequence numbers became per source; this build reads only \"source\" records"))
			return
		}
		r := d.Record("source")
		src, v := r.IntIn(0, maxSources), r.UintIn(1, math.MaxUint32+1)
		r.Done()
		if src <= prev {
			d.Fail(fmt.Errorf("packet: alloc source %d repeated or out of increasing order", src))
			return
		}
		prev = src
		k := owner(src)
		if k < 0 || k >= len(allocs) {
			d.Fail(fmt.Errorf("packet: alloc source %d is no source of this engine", src))
			return
		}
		if len(tables[k]) <= src {
			tables[k] = append(tables[k], make([]uint32, src+1-len(tables[k]))...)
		}
		tables[k][src] = uint32(v)
	}
	for k, a := range allocs {
		a.nextID = nextID
		a.next = tables[k]
		a.free = a.free[:0]
	}
}

// SaveState serializes the order checker: totals plus the last sequence
// number seen per flow. The record carries the actual last sequence
// number (the in-memory lastSeq+1 encoding is undone), so the byte
// format is independent of the checker's internal representation.
func (o *OrderChecker) SaveState(e *ckpt.Encoder) { SaveMergedOrderState(e, o) }

// LoadState restores the order checker, replacing current state.
func (o *OrderChecker) LoadState(d *ckpt.Decoder) { LoadSplitOrderState(d, o) }

// SaveMergedOrderState serializes checkers covering disjoint destination
// ranges, given in ascending range order, as the one checker covering
// their union: summed totals, then every flow in (src, dst, class)
// order. A partitioned engine with one checker per destination range
// thus writes the bytes a single whole-range checker would.
func SaveMergedOrderState(e *ckpt.Encoder, checkers ...*OrderChecker) {
	var delivered, violations, flows uint64
	rows := 0
	for _, o := range checkers {
		delivered += o.delivered
		violations += o.violations
		flows += o.last.count()
		rows = max(rows, len(o.last.rows))
	}
	e.Put("order", ckpt.Uint(delivered), ckpt.Uint(violations), ckpt.Uint(flows))
	for src := 0; src < rows; src++ {
		for _, o := range checkers {
			o.last.eachFrom(src, func(src, dst int, class Class, v uint32) {
				e.Put("oflow", ckpt.Int(int64(src)), ckpt.Int(int64(dst+o.lo)),
					ckpt.Uint(uint64(class)), ckpt.Uint(uint64(v-1)))
			})
		}
	}
}

// LoadSplitOrderState restores a SaveMergedOrderState snapshot into
// checkers, replacing their state: each takes the flows toward its own
// destination range, and the first takes the totals (only their sum is
// ever saved). Sources and destinations share one port space, so a
// flow toward a destination outside every range, or from a source past
// the highest range, is an error.
func LoadSplitOrderState(d *ckpt.Decoder, checkers ...*OrderChecker) {
	r := d.Record("order")
	delivered, violations, n := r.Uint(), r.Uint(), r.Count()
	r.Done()
	tables := make([]flowTable, len(checkers))
	ports := 0
	for k, o := range checkers {
		tables[k].width = o.last.width
		ports = max(ports, o.hi)
	}
	// next is one past the previous record's flat (src, dst, class)
	// index: records must come in strictly increasing order.
	var next uint64
	for i := 0; i < n; i++ {
		r := d.Record("oflow")
		src, dst := r.IntIn(0, ports), r.IntIn(0, ports)
		class := Class(r.UintIn(0, uint64(Control)+1))
		// The table keeps lastSeq+1 in 32 bits; no run held to
		// MaxTimelineSlots delivers a sequence number this high.
		last := r.UintIn(0, math.MaxUint32)
		r.Done()
		k := 0
		for k < len(checkers) && (dst < checkers[k].lo || dst >= checkers[k].hi) {
			k++
		}
		if k == len(checkers) {
			d.Fail(fmt.Errorf("packet: order flow record %d (%d->%d) outside the checkers' port range", i, src, dst))
			return
		}
		key := (uint64(src)*uint64(ports)+uint64(dst))<<1 | uint64(class)
		if key < next {
			d.Fail(fmt.Errorf("packet: order flow %d->%d class %d repeated or out of (src, dst, class) order", src, dst, class))
			return
		}
		next = key + 1
		*tables[k].slot(src, dst-checkers[k].lo, class) = uint32(last) + 1
	}
	for k, o := range checkers {
		o.last = tables[k]
		o.delivered, o.violations = 0, 0
	}
	checkers[0].delivered, checkers[0].violations = delivered, violations
}
