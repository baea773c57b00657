// Checkpoint codecs for the packet layer: cells in flight, the shared
// allocator's identity counters, and the order checker's per-flow
// bookkeeping. Everything a restored run needs to keep handing out the
// same IDs and sequence numbers — and to keep judging delivery order the
// same way — as its uninterrupted twin.
package packet

import (
	"fmt"

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
	return c, nil
}

// saveFlows writes every nonzero flow of a table as one record per
// flow, in (src, dst, class) order — flowTable.each iterates in exactly
// that order, so the encoding is byte-deterministic with no sort. sub
// is subtracted from each value before writing (the order checker keeps
// lastSeq+1 in memory but lastSeq on disk).
func saveFlows(e *ckpt.Encoder, name string, t *flowTable, sub uint64) {
	t.each(func(src, dst int, class Class, v uint64) {
		e.Put(name, ckpt.Int(int64(src)), ckpt.Int(int64(dst)),
			ckpt.Uint(uint64(class)), ckpt.Uint(v-sub))
	})
}

// parseFlow reads and validates one per-flow record written by
// saveFlows.
func parseFlow(d *ckpt.Decoder, name string) (src, dst int, class Class, v uint64, err error) {
	fr := d.Record(name)
	src, dst, class = fr.IntAsInt(), fr.IntAsInt(), Class(fr.Uint())
	v = fr.Uint()
	if err := fr.Done(); err != nil {
		return 0, 0, 0, 0, err
	}
	if class > Control {
		return 0, 0, 0, 0, fmt.Errorf("packet: %s flow class %d out of range", name, class)
	}
	// The dense table allocates per-source rows sized to the largest
	// destination, so bound both indices before trusting them.
	if src < 0 || dst < 0 || src >= 1<<24 || dst >= 1<<24 {
		return 0, 0, 0, 0, fmt.Errorf("packet: %s flow %d->%d outside supported port range", name, src, dst)
	}
	return src, dst, class, v, nil
}

// readFlow reads one per-flow record written by saveFlows, returning a
// pointer into t's value cell for that flow plus the stored value. The
// caller checks *p for duplicates (live flows are nonzero).
func readFlow(d *ckpt.Decoder, name string, t *flowTable) (p *uint64, v uint64, err error) {
	src, dst, class, v, err := parseFlow(d, name)
	if err != nil {
		return nil, 0, err
	}
	return t.slot(src, dst, class), v, nil
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
	r := d.Record("alloc")
	nextID, n := r.Uint(), r.Uint()
	if err := r.Done(); err != nil {
		return err
	}
	var seq flowTable
	for i := uint64(0); i < n; i++ {
		p, v, err := readFlow(d, "flow", &seq)
		if err != nil {
			return err
		}
		if *p != 0 {
			return fmt.Errorf("packet: alloc flow record %d duplicated", i)
		}
		if v == 0 {
			return fmt.Errorf("packet: alloc flow record %d has zero sequence count", i)
		}
		*p = v
	}
	a.nextID = nextID
	a.seq = seq
	a.free = a.free[:0]
	return nil
}

// SaveMergedState serializes the combined identity state of several
// allocators as one logical allocator. The fabric engine issues each
// host's cells from the allocator of the shard owning the host; each
// flow is only ever ADVANCED by one of them, so taking each flow's
// maximum counter yields a
// partition-independent snapshot: the same traffic produces the same
// merged flow state at any shard count. Maximum (not sum) also makes the
// merge idempotent across restore cycles — LoadMergedState hands every
// allocator the full map, and the copies that are never advanced again
// stay frozen at the checkpointed value, strictly below the live owner's.
func SaveMergedState(e *ckpt.Encoder, allocs ...*Allocator) {
	var nextID uint64
	var merged flowTable
	for _, a := range allocs {
		if a.nextID > nextID {
			nextID = a.nextID
		}
		a.seq.each(func(src, dst int, class Class, v uint64) {
			if p := merged.slot(src, dst, class); v > *p {
				*p = v
			}
		})
	}
	e.Put("alloc", ckpt.Uint(nextID), ckpt.Uint(merged.count()))
	saveFlows(e, "flow", &merged, 0)
}

// LoadMergedState restores a SaveMergedState snapshot into every target
// allocator: each receives the full flow map (whichever allocator serves
// a flow after restore continues its sequence exactly) and an ID counter
// at the merged maximum, so each allocator's freshly issued IDs never
// collide with IDs it handed to cells still in flight. IDs themselves
// are diagnostic — per-flow sequence numbers, which the order checker
// consumes, are the identity that must continue bit-exactly.
func LoadMergedState(d *ckpt.Decoder, allocs ...*Allocator) error {
	r := d.Record("alloc")
	nextID, n := r.Uint(), r.Uint()
	if err := r.Done(); err != nil {
		return err
	}
	var merged flowTable
	for i := uint64(0); i < n; i++ {
		p, v, err := readFlow(d, "flow", &merged)
		if err != nil {
			return err
		}
		if *p != 0 {
			return fmt.Errorf("packet: alloc flow record %d duplicated", i)
		}
		if v == 0 {
			return fmt.Errorf("packet: alloc flow record %d has zero sequence count", i)
		}
		*p = v
	}
	for _, a := range allocs {
		a.nextID = nextID
		a.seq = merged.clone()
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
			o.last.eachFrom(src, func(src, dst int, class Class, v uint64) {
				e.Put("oflow", ckpt.Int(int64(src)), ckpt.Int(int64(dst+o.lo)),
					ckpt.Uint(uint64(class)), ckpt.Uint(v-1))
			})
		}
	}
}

// LoadSplitOrderState restores a SaveMergedOrderState snapshot into
// checkers, replacing their state: each takes the flows toward its own
// destination range, and the first takes the totals (only their sum is
// ever saved). A flow outside every range is an error.
func LoadSplitOrderState(d *ckpt.Decoder, checkers ...*OrderChecker) error {
	r := d.Record("order")
	delivered, violations, n := r.Uint(), r.Uint(), r.Uint()
	if err := r.Done(); err != nil {
		return err
	}
	tables := make([]flowTable, len(checkers))
	for k, o := range checkers {
		tables[k].width = o.last.width
	}
	for i := uint64(0); i < n; i++ {
		src, dst, class, v, err := parseFlow(d, "oflow")
		if err != nil {
			return err
		}
		k := 0
		for k < len(checkers) && (dst < checkers[k].lo || dst >= checkers[k].hi) {
			k++
		}
		if k == len(checkers) {
			return fmt.Errorf("packet: order flow record %d toward %d outside every checker's destination range", i, dst)
		}
		p := tables[k].slot(src, dst-checkers[k].lo, class)
		if *p != 0 {
			return fmt.Errorf("packet: order flow record %d duplicated", i)
		}
		*p = v + 1
	}
	for k, o := range checkers {
		o.last = tables[k]
		o.delivered, o.violations = 0, 0
	}
	checkers[0].delivered, checkers[0].violations = delivered, violations
	return nil
}
