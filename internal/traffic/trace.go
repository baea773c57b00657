// Deterministic workload traces: any generated workload can be recorded
// to a versioned, diffable text file and replayed bit-exactly — the
// same arrivals at the same slots with the same destinations and
// classes — independent of the generator kind, RNG, or code version
// that produced it.
//
// Format (version 1), line-oriented ASCII:
//
//	osmosis-trace v1 n=<ports> slots=<slots> events=<count>
//	<slot> <port> <dst> <class>
//	...
//
// Events are sorted by (slot, port) with at most one event per (slot,
// port) pair — the slotted-generator contract — so a trace written from
// the same events is byte-identical however it was produced, and two
// traces are equal iff their files are.

package traffic

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TraceVersion is the trace format version this package reads and
// writes.
const TraceVersion = 1

// traceMagic opens every trace file.
const traceMagic = "osmosis-trace"

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

// Write serializes the trace in the version-1 text format.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s v%d n=%d slots=%d events=%d\n",
		traceMagic, TraceVersion, t.N, t.Slots, len(t.Events)); err != nil {
		return err
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", e.Slot, e.Port, e.Dst, e.Class); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a version-1 trace, validating the header, event
// count, field ranges, and (slot, port) ordering.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("traffic: trace header: %w", err)
	}
	fields := strings.Fields(header)
	if len(fields) != 5 || fields[0] != traceMagic {
		return nil, fmt.Errorf("traffic: not a trace file (header %q)", strings.TrimSpace(header))
	}
	if fields[1] != fmt.Sprintf("v%d", TraceVersion) {
		return nil, fmt.Errorf("traffic: unsupported trace version %q (this build reads v%d)", fields[1], TraceVersion)
	}
	t := &Trace{}
	var events uint64
	for i, spec := range []struct {
		key string
		dst *uint64
	}{{"n", nil}, {"slots", &t.Slots}, {"events", &events}} {
		kv := strings.SplitN(fields[i+2], "=", 2)
		if len(kv) != 2 || kv[0] != spec.key {
			return nil, fmt.Errorf("traffic: trace header field %q, want %s=<value>", fields[i+2], spec.key)
		}
		v, err := strconv.ParseUint(kv[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("traffic: trace header %s: %w", spec.key, err)
		}
		if spec.dst != nil {
			*spec.dst = v
		} else {
			t.N = int(v)
		}
	}
	if t.N <= 0 {
		return nil, fmt.Errorf("traffic: trace with %d ports", t.N)
	}
	// Events grow as lines are read: the header's count is checked
	// against them at the end, never trusted to size an allocation.
	prevSlot, prevPort := uint64(0), -1
	for line := 1; ; line++ {
		raw, err := br.ReadString('\n')
		if raw == "" && err == io.EOF {
			break
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("traffic: trace line %d: %w", line, err)
		}
		parts := strings.Fields(raw)
		if len(parts) != 4 {
			return nil, fmt.Errorf("traffic: trace line %d has %d fields, want 4", line, len(parts))
		}
		var e TraceEvent
		var cls uint64
		for i, f := range parts {
			v, perr := strconv.ParseUint(f, 10, 64)
			if perr != nil {
				return nil, fmt.Errorf("traffic: trace line %d field %d: %w", line, i+1, perr)
			}
			switch i {
			case 0:
				e.Slot = v
			case 1:
				e.Port = int(v)
			case 2:
				e.Dst = int(v)
			default:
				cls = v
			}
		}
		if cls > uint64(ClassControl) {
			return nil, fmt.Errorf("traffic: trace line %d class %d out of range", line, cls)
		}
		e.Class = ClassChoice(cls)
		if e.Slot >= t.Slots {
			return nil, fmt.Errorf("traffic: trace line %d slot %d beyond declared %d slots", line, e.Slot, t.Slots)
		}
		if e.Port >= t.N || e.Dst < 0 || e.Dst >= t.N {
			return nil, fmt.Errorf("traffic: trace line %d port %d -> dst %d out of [0,%d)", line, e.Port, e.Dst, t.N)
		}
		if e.Slot < prevSlot || (e.Slot == prevSlot && e.Port <= prevPort) {
			return nil, fmt.Errorf("traffic: trace line %d out of (slot, port) order", line)
		}
		prevSlot, prevPort = e.Slot, e.Port
		t.Events = append(t.Events, e)
		if err == io.EOF {
			break
		}
	}
	if uint64(len(t.Events)) != events {
		return nil, fmt.Errorf("traffic: trace declares %d events, file holds %d", events, len(t.Events))
	}
	return t, nil
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
