// Checkpoint codecs for the packet layer: cells in flight, the shared
// allocator's identity counters, and the order checker's per-flow
// bookkeeping. Everything a restored run needs to keep handing out the
// same IDs and sequence numbers — and to keep judging delivery order the
// same way — as its uninterrupted twin.
package packet

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/units"
)

// SaveCell writes one cell as a "cell" record. Cells carrying payload
// bytes are not checkpointable (performance simulations leave Payload
// nil); encountering one poisons the encode.
func SaveCell(e *ckpt.Encoder, c *Cell) {
	if c.Payload != nil {
		e.Fail(fmt.Errorf("packet: cell %d carries %d payload bytes; payload cells are not checkpointable", c.ID, len(c.Payload)))
		return
	}
	e.Put("cell",
		ckpt.Uint(c.ID), ckpt.Int(int64(c.Src)), ckpt.Int(int64(c.Dst)),
		ckpt.Uint(uint64(c.Class)), ckpt.Uint(c.Seq),
		ckpt.Int(int64(c.Created)), ckpt.Int(int64(c.Injected)), ckpt.Int(int64(c.Delivered)),
		ckpt.Int(int64(c.Hops)), ckpt.Int(int64(c.Retransmits)))
}

// LoadCell reads one "cell" record written by SaveCell into a fresh cell.
func LoadCell(d *ckpt.Decoder) (*Cell, error) {
	r := d.Record("cell")
	c := &Cell{
		ID:  r.Uint(),
		Src: r.IntAsInt(), Dst: r.IntAsInt(),
		Class:   Class(r.Uint()),
		Seq:     r.Uint(),
		Created: units.Time(r.Int()), Injected: units.Time(r.Int()), Delivered: units.Time(r.Int()),
		Hops: r.IntAsInt(), Retransmits: r.IntAsInt(),
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if c.Class > Control {
		return nil, fmt.Errorf("packet: cell %d class %d out of range", c.ID, c.Class)
	}
	// The order checker stores Seq+1 in 32 bits; no run issues a
	// sequence number this high (MaxTimelineSlots).
	if c.Seq >= math.MaxUint32 {
		return nil, fmt.Errorf("packet: cell %d sequence number %d past the 32-bit flow range", c.ID, c.Seq)
	}
	return c, nil
}

// saveFlows writes every nonzero flow of a table as one record per
// flow, in (src, dst, class) order — flowTable.each iterates in exactly
// that order, so the encoding is byte-deterministic with no sort. sub
// is subtracted from each value before writing (the order checker keeps
// lastSeq+1 in memory but lastSeq on disk).
func saveFlows(e *ckpt.Encoder, name string, t *flowTable, sub uint32) {
	t.each(func(src, dst int, class Class, v uint32) {
		e.Put(name, ckpt.Int(int64(src)), ckpt.Int(int64(dst)),
			ckpt.Uint(uint64(class)), ckpt.Uint(uint64(v-sub)))
	})
}

// flowReader reads the per-flow records of one section. saveFlows
// writes them in strictly increasing (src, dst, class) order, and the
// reader refuses any other order: a repeated flow is an error, and
// every section it accepts re-encodes byte for byte.
type flowReader struct {
	name string
	// add is added to each stored value: 1 for the order checker, which
	// keeps lastSeq+1 in memory.
	add uint32
	// next is one past the previous record's (src, dst, class) key, so
	// the next record's key must be at least next.
	next uint64
}

// read reads and validates one record. The value must fit a flow table
// once add is added to it: a larger one cannot come from a run held to
// MaxTimelineSlots.
func (fr *flowReader) read(d *ckpt.Decoder) (src, dst int, class Class, v uint32, err error) {
	r := d.Record(fr.name)
	src, dst, class = r.IntAsInt(), r.IntAsInt(), Class(r.Uint())
	raw := r.Uint()
	if err := r.Done(); err != nil {
		return 0, 0, 0, 0, err
	}
	if class > Control {
		return 0, 0, 0, 0, fmt.Errorf("packet: %s flow class %d out of range", fr.name, class)
	}
	// The dense table allocates per-source rows sized to the largest
	// destination, so bound both indices before trusting them.
	if src < 0 || dst < 0 || src >= 1<<24 || dst >= 1<<24 {
		return 0, 0, 0, 0, fmt.Errorf("packet: %s flow %d->%d outside supported port range", fr.name, src, dst)
	}
	if raw > uint64(math.MaxUint32-fr.add) {
		return 0, 0, 0, 0, fmt.Errorf("packet: %s flow %d->%d value %d past the 32-bit flow range", fr.name, src, dst, raw)
	}
	key := uint64(src)<<25 | uint64(dst)<<1 | uint64(class)
	if key < fr.next {
		return 0, 0, 0, 0, fmt.Errorf("packet: %s flow %d->%d class %d repeated or out of (src, dst, class) order", fr.name, src, dst, class)
	}
	fr.next = key + 1
	return src, dst, class, uint32(raw) + fr.add, nil
}

// SaveState serializes the allocator's identity state: the ID counter
// and every flow's next sequence number. The free list is deliberately
// not serialized — recycling affects only which memory backs a cell,
// never its identity, so a restored allocator that heap-allocates
// produces the same run.
func (a *Allocator) SaveState(e *ckpt.Encoder) {
	e.Put("alloc", ckpt.Uint(a.nextID), ckpt.Uint(a.seq.count()))
	saveFlows(e, "flow", &a.seq, 0)
}

// LoadState restores the allocator's identity state, replacing the
// current counters.
func (a *Allocator) LoadState(d *ckpt.Decoder) error {
	return LoadMergedState(d, func(int, int) int { return 0 }, a)
}

// SaveMergedState serializes the combined identity state of several
// allocators as one logical allocator. The fabric engine issues each
// host's cells from the allocator of the shard owning the host, and
// LoadMergedState hands each allocator only the flows of its own
// sources, so every flow lives in exactly one allocator: taking each
// flow's maximum counter is a disjoint union, and the snapshot is the
// same at any shard count. The ID counter is the allocators' maximum.
func SaveMergedState(e *ckpt.Encoder, allocs ...*Allocator) {
	var nextID uint64
	var merged flowTable
	for _, a := range allocs {
		if a.nextID > nextID {
			nextID = a.nextID
		}
		a.seq.each(func(src, dst int, class Class, v uint32) {
			if p := merged.slot(src, dst, class); v > *p {
				*p = v
			}
		})
	}
	e.Put("alloc", ckpt.Uint(nextID), ckpt.Uint(merged.count()))
	saveFlows(e, "flow", &merged, 0)
}

// LoadMergedState restores a SaveMergedState snapshot into allocators
// that issue cells for disjoint sets of sources: owner(src, dst) is the
// index in allocs of the one issuing the flow's cells, or -1 when the
// engine has no such flow (an error). Each allocator receives only its
// own sources' flows, so whichever allocator serves a flow after
// restore continues its sequence exactly, and no flow is held twice.
// Every allocator takes the merged ID counter, so its freshly issued
// IDs never collide with IDs it handed to cells still in flight. IDs
// themselves are diagnostic — per-flow sequence numbers, which the
// order checker consumes, are the identity that must continue
// bit-exactly.
func LoadMergedState(d *ckpt.Decoder, owner func(src, dst int) int, allocs ...*Allocator) error {
	r := d.Record("alloc")
	nextID, n := r.Uint(), r.Uint()
	if err := r.Done(); err != nil {
		return err
	}
	tables := make([]flowTable, len(allocs))
	fr := flowReader{name: "flow"}
	for i := uint64(0); i < n; i++ {
		src, dst, class, v, err := fr.read(d)
		if err != nil {
			return err
		}
		if v == 0 {
			return fmt.Errorf("packet: alloc flow record %d has zero sequence count", i)
		}
		k := owner(src, dst)
		if k < 0 || k >= len(allocs) {
			return fmt.Errorf("packet: alloc flow record %d (%d->%d) is no flow of this engine", i, src, dst)
		}
		*tables[k].slot(src, dst, class) = v
	}
	for k, a := range allocs {
		a.nextID = nextID
		a.seq = tables[k]
		a.free = a.free[:0]
	}
	return nil
}

// SaveState serializes the order checker: totals plus the last sequence
// number seen per flow. The record carries the actual last sequence
// number (the in-memory lastSeq+1 encoding is undone), so the byte
// format is independent of the checker's internal representation.
func (o *OrderChecker) SaveState(e *ckpt.Encoder) { SaveMergedOrderState(e, o) }

// LoadState restores the order checker, replacing current state.
func (o *OrderChecker) LoadState(d *ckpt.Decoder) error { return LoadSplitOrderState(d, o) }

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
func LoadSplitOrderState(d *ckpt.Decoder, checkers ...*OrderChecker) error {
	r := d.Record("order")
	delivered, violations, n := r.Uint(), r.Uint(), r.Uint()
	if err := r.Done(); err != nil {
		return err
	}
	tables := make([]flowTable, len(checkers))
	ports := 0
	for k, o := range checkers {
		tables[k].width = o.last.width
		ports = max(ports, o.hi)
	}
	fr := flowReader{name: "oflow", add: 1}
	for i := uint64(0); i < n; i++ {
		src, dst, class, v, err := fr.read(d)
		if err != nil {
			return err
		}
		k := 0
		for k < len(checkers) && (dst < checkers[k].lo || dst >= checkers[k].hi) {
			k++
		}
		if k == len(checkers) || src >= ports {
			return fmt.Errorf("packet: order flow record %d (%d->%d) outside the checkers' port range", i, src, dst)
		}
		*tables[k].slot(src, dst-checkers[k].lo, class) = v
	}
	for k, o := range checkers {
		o.last = tables[k]
		o.delivered, o.violations = 0, 0
	}
	checkers[0].delivered, checkers[0].violations = delivered, violations
	return nil
}
