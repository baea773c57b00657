// Deterministic workload traces: any generated workload can be recorded
// to a diffable text file and replayed bit-exactly — the same arrivals
// at the same slots with the same destinations and classes —
// independent of the generator kind, RNG, or code version that
// produced it.
//
// A trace is an osmosis-ckpt file (package ckpt) with one section:
//
//	osmosis-ckpt v2
//	begin trace
//	n <ports>
//	slots <slots>
//	e <slot> <port> <dst> <class>
//	...
//	end trace
//	checksum <16 hex digits>
//
// Events are sorted by (slot, port) with at most one event per (slot,
// port) pair — the slotted-generator contract — so a trace written from
// the same events is byte-identical however it was produced, and two
// traces are equal iff their files are. The file carries no event
// count: the events are the records up to "end trace".

package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"repro/internal/ckpt"
)

// TraceEvent is one recorded cell arrival.
type TraceEvent struct {
	Slot  uint64
	Port  int
	Dst   int
	Class ClassChoice
}

// Trace is a recorded workload: every arrival of N ports over Slots
// slots, sorted by (Slot, Port).
type Trace struct {
	N      int
	Slots  uint64
	Events []TraceEvent
}

// RecordTrace builds the workload named by cfg and records slots slots
// of it. The trace replays bit-exactly through Generators or a
// KindTrace Build.
func RecordTrace(cfg Config, slots uint64) (*Trace, error) {
	gens, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	t := &Trace{N: len(gens), Slots: slots}
	for s := uint64(0); s < slots; s++ {
		for p, g := range gens {
			if a, ok := g.Next(s); ok {
				t.Events = append(t.Events, TraceEvent{Slot: s, Port: p, Dst: a.Dst, Class: a.Class})
			}
		}
	}
	return t, nil
}

// Write serializes the trace as an osmosis-ckpt file.
func (t *Trace) Write(w io.Writer) error {
	e := ckpt.NewEncoder(w)
	e.Begin("trace")
	e.Put("n", ckpt.Uint(uint64(t.N)))
	e.Put("slots", ckpt.Uint(t.Slots))
	for _, ev := range t.Events {
		e.Put("e", ckpt.Uint(ev.Slot), ckpt.Uint(uint64(ev.Port)), ckpt.Uint(uint64(ev.Dst)), ckpt.Uint(uint64(ev.Class)))
	}
	e.End("trace")
	return e.Close()
}

// ReadTrace parses a trace written by Write. It reads r to the end and
// checks the container's header and checksum before it parses an event,
// so a damaged file builds no trace; the event walk then checks
// canonical tokens, the field ranges and the (slot, port) ordering. A
// file in the retired osmosis-trace v1 format is refused.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(len("osmosis-trace ")); string(head) == "osmosis-trace " {
		return nil, fmt.Errorf("traffic: osmosis-trace v1 files are no longer read; record the trace again with this build")
	}
	d, err := ckpt.NewDecoder(br)
	if err != nil {
		return nil, fmt.Errorf("traffic: trace: %w", err)
	}
	t := readTrace(d)
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("traffic: trace: %w", err)
	}
	return t, nil
}

// readTrace walks the trace section. Ports and destinations are
// bounded reads, checked against n on the whole token before any
// conversion to int, so no value can wrap past a range check.
func readTrace(d *ckpt.Decoder) *Trace {
	d.Begin("trace")
	rec := d.Record("n")
	n := int(rec.UintIn(1, math.MaxInt))
	rec.Done()
	rec = d.Record("slots")
	t := &Trace{N: n, Slots: rec.Uint()}
	rec.Done()
	for !d.AtEnd("trace") {
		rec := d.Record("e")
		ev := TraceEvent{Slot: rec.UintIn(0, t.Slots), Port: int(rec.UintIn(0, uint64(n))),
			Dst: int(rec.UintIn(0, uint64(n))), Class: ClassChoice(rec.UintIn(0, uint64(ClassControl)+1))}
		rec.Done()
		if i := len(t.Events); i > 0 {
			if prev := t.Events[i-1]; ev.Slot < prev.Slot || (ev.Slot == prev.Slot && ev.Port <= prev.Port) {
				d.Fail(fmt.Errorf("event %d out of (slot, port) order", i))
			}
		}
		t.Events = append(t.Events, ev)
	}
	d.End("trace")
	return t
}

// TracePlayer replays one port's slice of a recorded trace. Slots past
// the end of the recording are silent.
type TracePlayer struct {
	events []TraceEvent // this port's events, ascending Slot
	pos    int
}

// Next implements Generator. Calls may skip slots (the player fast-
// forwards) but must not go backwards.
func (p *TracePlayer) Next(slot uint64) (Arrival, bool) {
	for p.pos < len(p.events) && p.events[p.pos].Slot < slot {
		p.pos++
	}
	if p.pos < len(p.events) && p.events[p.pos].Slot == slot {
		e := p.events[p.pos]
		p.pos++
		return Arrival{Dst: e.Dst, Class: e.Class}, true
	}
	return Arrival{}, false
}

// Generators returns one replay generator per port. The players share
// the trace's event storage; each replay pass needs a fresh call.
func (t *Trace) Generators() []Generator {
	perPort := make([][]TraceEvent, t.N)
	for _, e := range t.Events {
		perPort[e.Port] = append(perPort[e.Port], e)
	}
	gens := make([]Generator, t.N)
	for i := range gens {
		gens[i] = &TracePlayer{events: perPort[i]}
	}
	return gens
}
