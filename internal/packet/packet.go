// Package packet models the fixed-size cells the OSMOSIS fabric
// switches. The demonstrator uses 256-byte cells (including guard time)
// on a 51.2 ns cycle at 40 Gb/s; the paper's requirements also cover
// 64-byte minimum packets at 12 GByte/s ports.
//
// Cells carry the bimodal traffic the paper assumes: short control
// packets needing minimum latency and long data packets needing
// sustained utilization. Priority selection throughout the fabric is
// strict: control before data.
package packet

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Class distinguishes the two modes of the paper's bimodal traffic.
type Class uint8

const (
	// Data packets require high utilization.
	Data Class = iota
	// Control packets require minimum latency and strict priority.
	Control
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Data:
		return "data"
	case Control:
		return "control"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Cell is one fixed-size fabric packet.
//
// Cells are passed by pointer through the simulation; each cell is
// allocated once at its source adapter and annotated as it traverses
// stages so end-to-end latency and hop counts can be recovered exactly.
type Cell struct {
	// ID is unique per simulation run (assigned by the allocator).
	ID uint64
	// Src and Dst are fabric-level (machine) port indices.
	Src, Dst int
	// Class is the traffic mode; Control has strict priority.
	Class Class
	// Hops counts crossbar traversals (stages crossed).
	Hops int
	// next links the cell to the one queued behind it in the Queue
	// holding it; it means nothing once the cell is the tail or leaves
	// the queue. Kept beside the fields every hop touches (Src, Dst,
	// Class, Hops), so a queue operation and a hop's reads tend to share
	// a cache line.
	next *Cell
	// Seq numbers the cells of one source 0, 1, 2, ... in creation
	// order. A flow's cells are a subsequence of its source's, so Seq
	// strictly increases within every (Src, Dst, Class) flow: what the
	// order checker needs to verify the Table-1 in-order requirement.
	Seq uint64
	// Created is the arrival time at the source ingress adapter.
	Created units.Time
	// Injected is when the first bit entered the first crossbar's VOQ.
	Injected units.Time
	// Delivered is set by the egress adapter at final delivery.
	Delivered units.Time
	// Retransmits counts link-level retransmissions the cell suffered.
	Retransmits int
}

// String formats the cell identity for diagnostics.
func (c *Cell) String() string {
	return fmt.Sprintf("cell{id=%d %d->%d %v seq=%d}", c.ID, c.Src, c.Dst, c.Class, c.Seq)
}

// Allocator hands out cells with unique IDs and per-source sequence
// numbers. Each independent cell source of a run (the crossbar, or one
// fabric shard) keeps its own.
//
// Retired cells can be handed back with Free; New then recycles them
// instead of heap-allocating, so a steady-state simulation loop whose
// cells all retire (the crossbar engine frees at delivery and at drop)
// allocates no cells after warm-up. Identity assignment (ID, Seq) is
// identical whether a cell is fresh or recycled.
type Allocator struct {
	nextID uint64
	// next holds each source's next sequence number, indexed by src and
	// grown to the highest source seen. 32 bits suffice: a source makes
	// at most one cell per slot, and no timeline ends past
	// MaxTimelineSlots, so no counter passes math.MaxUint32.
	next []uint32
	free []*Cell
}

// flowTable stores one uint32 per (src, dst, class) flow in dense
// per-source, per-class rows indexed by dst. At the loads where flow
// state is hot, most (src, dst) pairs are live, so a dense table beats
// a hash map: one predictable indexed load per access, no key mixing,
// no probe chain, and no incremental-rehash pauses once millions of
// flows exist. A value of 0 means the flow has never been touched.
//
// Each class has its own row so data-only traffic never allocates the
// control half, and every row is exactly width entries long: the order
// checker of a destination range knows its row length up front. dst
// must be below width, and class must be Data or Control — which Class
// is by construction everywhere cells are made.
type flowTable struct {
	rows  [][2][]uint32 // [src][class][dst]
	width int
}

// MaxTimelineSlots is the last slot any run timeline may end at. Every
// traffic generator makes at most one arrival per (port, slot), and
// traffic.ReadTrace enforces the same for a replayed trace, so a source
// makes at most one cell per slot: a timeline ending at slot E leaves
// every source's sequence counter, and so every flow's last sequence
// number plus one, at most E. Holding E to 2^32-1 keeps the 32-bit
// counters and flow tables from wrapping, so "0 = never seen" keeps its
// meaning. The engines refuse to run past it: CheckTimeline before a
// whole run steps, and a fabric session at each Advance.
const MaxTimelineSlots = math.MaxUint32

// CheckTimeline reports an error when a timeline starting at slot start
// and running warmup+measure slots would end past MaxTimelineSlots. The
// check never overflows, however large its operands.
func CheckTimeline(start, warmup, measure uint64) error {
	if start > MaxTimelineSlots || warmup > MaxTimelineSlots-start || measure > MaxTimelineSlots-start-warmup {
		return fmt.Errorf("timeline from slot %d with %d warm-up and %d measured slots ends past slot %d, the bound the 32-bit sequence counters hold",
			start, warmup, measure, uint64(MaxTimelineSlots))
	}
	return nil
}

// slot returns the value cell for a flow, allocating its row on first
// use.
//
//osmosis:shardsafe
func (t *flowTable) slot(src, dst int, class Class) *uint32 {
	if src >= len(t.rows) {
		//lint:ignore hotpath outer table reaches the source-port count once and stops growing
		t.rows = append(t.rows, make([][2][]uint32, src+1-len(t.rows))...)
	}
	row := t.rows[src][class]
	if row == nil {
		//lint:ignore hotpath each (source, class) row is allocated once, at the table width
		row = make([]uint32, t.width)
		t.rows[src][class] = row
	}
	return &row[dst]
}

// eachFrom calls fn for every nonzero flow of one source, in (dst,
// class) order — the order the checkpoint encoder relies on for
// byte-deterministic serialization.
func (t *flowTable) eachFrom(src int, fn func(src, dst int, class Class, v uint32)) {
	if src >= len(t.rows) {
		return
	}
	pair := t.rows[src]
	for dst := 0; dst < t.width; dst++ {
		for class, row := range pair {
			if row != nil && row[dst] != 0 {
				fn(src, dst, Class(class), row[dst])
			}
		}
	}
}

// count reports the number of nonzero flows.
func (t *flowTable) count() uint64 {
	var n uint64
	for _, pair := range t.rows {
		for _, row := range pair {
			for _, v := range row {
				if v != 0 {
					n++
				}
			}
		}
	}
	return n
}

// NewAllocator returns an empty allocator.
func NewAllocator() *Allocator {
	return &Allocator{}
}

// New creates a cell for the given flow, stamping ID, Seq and Created.
// It reuses a freed cell when one is available.
//
//osmosis:shardsafe
func (a *Allocator) New(src, dst int, class Class, now units.Time) *Cell {
	if src >= len(a.next) {
		//lint:ignore hotpath the counter slice reaches the source-port count once and stops growing
		a.next = append(a.next, make([]uint32, src+1-len(a.next))...)
	}
	seq := a.next[src]
	a.next[src] = seq + 1
	a.nextID++
	var c *Cell
	if n := len(a.free); n > 0 {
		c = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		*c = Cell{}
	} else {
		c = &Cell{}
	}
	c.ID = a.nextID
	c.Src = src
	c.Dst = dst
	c.Class = class
	c.Seq = uint64(seq)
	c.Created = now
	return c
}

// Free returns a retired cell to the allocator for reuse. The caller
// must not keep any reference to it: the next New may hand the same
// memory out as a different cell. Freeing nil is a no-op.
//
//osmosis:shardsafe
func (a *Allocator) Free(c *Cell) {
	if c == nil {
		return
	}
	//lint:ignore hotpath append into the retained free list; bounded by peak cells in flight, cap-stable after warm-up
	a.free = append(a.free, c)
}

// Issued reports how many cells have been allocated.
func (a *Allocator) Issued() uint64 { return a.nextID }

// OrderChecker verifies the Table-1 requirement that packet order is
// maintained between every input/output pair (per class). It records
// the last sequence number delivered per flow and counts violations.
//
// A checker covers the flows toward one destination range [lo, hi), so
// a partitioned engine can give each partition a checker for the
// destinations it delivers to: the tables split the flow space instead
// of each covering all of it.
type OrderChecker struct {
	// last holds lastSeq+1 per flow (0 means the flow has never
	// delivered), keyed by (src, dst-lo, class), folding the seen-flag
	// into the same cell so the hot Deliver path does one table access
	// per cell. Sequence numbers stay below MaxTimelineSlots, so
	// lastSeq+1 fits the table's 32 bits without wrapping to 0.
	last       flowTable
	lo, hi     int
	violations uint64
	delivered  uint64
}

// NewOrderCheckerFor returns an empty checker for the flows toward
// destinations [lo, hi). Its rows are exactly hi-lo entries long.
func NewOrderCheckerFor(lo, hi int) *OrderChecker {
	return &OrderChecker{last: flowTable{width: hi - lo}, lo: lo, hi: hi}
}

// Deliver records a delivery; it returns false if the cell arrived out
// of order with respect to its flow. A sequence gap is not a violation
// by itself (the missing cell may still be in flight and would then
// arrive late, which is caught as a non-increasing sequence); delivery
// must only be strictly increasing per flow. c.Dst must lie in the
// checker's destination range.
//
//osmosis:hotpath
//osmosis:shardsafe
func (o *OrderChecker) Deliver(c *Cell) bool {
	p := o.last.slot(c.Src, c.Dst-o.lo, c.Class)
	o.delivered++
	if v := *p; v != 0 && c.Seq < uint64(v) {
		o.violations++
		return false
	}
	*p = uint32(c.Seq) + 1
	return true
}

// Violations reports how many deliveries broke per-flow order.
func (o *OrderChecker) Violations() uint64 { return o.violations }

// Format describes the fixed cell format of a fabric configuration and
// the resulting timing, following §V of the paper: the 256-byte OSMOSIS
// cell includes the guard time, giving a 51.2 ns packet cycle at 40 Gb/s.
type Format struct {
	// CellBytes is the on-the-wire cell size including guard equivalent.
	CellBytes int
	// HeaderBytes is consumed by addressing/sequence/CRC fields.
	HeaderBytes int
	// GuardTime is the per-cell dead time (SOA switching + burst-mode
	// receiver phase acquisition + arrival jitter).
	GuardTime units.Time
	// LineRate is the raw serial rate of one port.
	LineRate units.Bandwidth
	// FECOverhead is the fraction of coded bits that are redundancy
	// (6.25% for the paper's (272,256) code).
	FECOverhead float64
}

// OSMOSISFormat is the demonstrator cell format from §V.
func OSMOSISFormat() Format {
	return Format{
		CellBytes:   256,
		HeaderBytes: 8,
		// 5 ns SOA switching (§II) plus burst-mode receiver phase
		// re-acquisition and packet-arrival jitter (§IV.C); the total
		// guard budget yields the paper's "close to 75%" effective
		// user bandwidth.
		GuardTime:   8 * units.Nanosecond,
		LineRate:    units.OSMOSISPortRate,
		FECOverhead: 16.0 / 256.0, // (272,256): 16 check bits per 256
	}
}

// CycleTime reports the full per-cell slot duration (transmission of
// CellBytes at LineRate; the guard time is carved out of the slot, as in
// the demonstrator where 256 B at 40 Gb/s defines the 51.2 ns cycle).
func (f Format) CycleTime() units.Time {
	return units.TransmissionTime(f.CellBytes, f.LineRate)
}

// UserBytes reports the bytes per cell left for user payload after the
// guard time, header, and FEC overhead are paid.
func (f Format) UserBytes() float64 {
	cycle := f.CycleTime()
	if cycle <= 0 {
		return 0
	}
	usable := float64(cycle-f.GuardTime) / float64(cycle) * float64(f.CellBytes)
	usable -= float64(f.HeaderBytes)
	usable *= 1 - f.FECOverhead
	if usable < 0 {
		return 0
	}
	return usable
}

// EffectiveUserBandwidthFraction reports the Table-1 "effective user
// bandwidth" metric: user payload bits divided by raw line-rate bits.
func (f Format) EffectiveUserBandwidthFraction() float64 {
	return f.UserBytes() / float64(f.CellBytes)
}
