// Package fault is the deterministic fault-schedule engine for the
// reliability stack the paper's viability argument rests on (§IV, §VI):
// dual receivers per egress, (272,256,3) FEC with hop-by-hop
// retransmission, and scheduler-relayed flow control only earn their
// cost if the fabric degrades gracefully when components actually fail.
// This package injects those failures — SOA gates stuck off or on,
// receiver loss at an egress, transient scheduler-pipeline stalls — on
// a schedule that is a pure function of (base seed, spec), derived through
// sim.DeriveSeed so that a faulted run is byte-identical at any
// parallelism, exactly like the healthy runs.
//
// The package knows nothing about the components it breaks: an Injector
// turns a compiled Schedule into calls on per-kind hooks that the
// crossbar engine and the optical fabric register (see internal/core
// for the wiring). Link-layer error bursts are exercised in
// internal/link, which takes a BER directly.
package fault

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// Kind enumerates the component failure classes the engine can inject.
type Kind string

// Fault kinds. Receiver and SOA faults address the optical data path;
// a scheduler stall models a transient arbiter-pipeline outage.
const (
	// ReceiverLoss takes one of an egress adapter's receivers out of
	// service (the Fig.-7 dual-receiver path degrades to single).
	ReceiverLoss Kind = "receiver-loss"
	// SOAStuckOff wedges one fiber-select gate of a switching module in
	// the off state: paths through that gate go dark.
	SOAStuckOff Kind = "soa-stuck-off"
	// SOAStuckOn wedges a gate on: the module loses selectivity and
	// leaks a second input (a crosstalk fault, §V).
	SOAStuckOn Kind = "soa-stuck-on"
	// SchedStall freezes the scheduler pipeline for Duration slots: no
	// new grants are issued while it lasts.
	SchedStall Kind = "sched-stall"
)

// StreamLabel is the sim.DeriveSeed label reserved for the fault
// stream. Fault draws never share a stream with traffic or any other
// model component, so adding a fault campaign cannot perturb the
// traffic a healthy run would have seen.
const StreamLabel uint64 = 0xFA17

// Permanent is the End() of an event with Duration 0.
const Permanent = uint64(math.MaxUint64)

// ReceiverHighest is a sentinel Receiver value resolved by Compile to
// the highest receiver index (the redundant one on a dual-receiver
// egress) — what a CLI spec means when it names only an egress.
const ReceiverHighest = -1

// Event is one scheduled fault. The zero Duration means the fault is
// permanent; otherwise it clears Duration slots after Start.
type Event struct {
	Kind Kind
	// Start is the packet-cycle slot at which the fault lands.
	Start uint64
	// Duration in slots; 0 = permanent. For SchedStall it is the stall
	// length itself (a stall is over once the pipeline refills).
	Duration uint64

	// Egress and Receiver address receiver and SOA faults.
	Egress, Receiver int
	// Gate is the fiber-select gate index within the switching module
	// for SOA faults.
	Gate int
}

// End reports the first slot at which the fault is no longer active
// (Permanent for Duration 0).
func (e Event) End() uint64 {
	if e.Duration == 0 {
		return Permanent
	}
	return e.Start + e.Duration
}

// String renders the event for reports and degradation tables.
func (e Event) String() string {
	life := "permanent"
	if e.Duration > 0 {
		life = fmt.Sprintf("%d slots", e.Duration)
	}
	switch e.Kind {
	case ReceiverLoss:
		return fmt.Sprintf("%s egress=%d rx=%d @%d (%s)", e.Kind, e.Egress, e.Receiver, e.Start, life)
	case SOAStuckOff, SOAStuckOn:
		return fmt.Sprintf("%s egress=%d rx=%d gate=%d @%d (%s)", e.Kind, e.Egress, e.Receiver, e.Gate, e.Start, life)
	case SchedStall:
		return fmt.Sprintf("%s @%d (%d slots)", e.Kind, e.Start, e.Duration)
	}
	return fmt.Sprintf("%s @%d", e.Kind, e.Start)
}

// Dims bounds the target space a schedule is compiled against.
type Dims struct {
	// Ports and Receivers mirror the switch configuration.
	Ports, Receivers int
	// Fibers is the broadcast-fiber count (gate indices for SOA faults).
	Fibers int
}

// validate checks one event against the dims.
func (d Dims) validate(e Event) error {
	switch e.Kind {
	case ReceiverLoss, SOAStuckOff, SOAStuckOn:
		if e.Egress < 0 || e.Egress >= d.Ports {
			return fmt.Errorf("fault: %s egress %d out of range [0,%d)", e.Kind, e.Egress, d.Ports)
		}
		if e.Receiver < 0 || e.Receiver >= d.Receivers {
			return fmt.Errorf("fault: %s receiver %d out of range [0,%d)", e.Kind, e.Receiver, d.Receivers)
		}
		if e.Kind != ReceiverLoss && (e.Gate < 0 || (d.Fibers > 0 && e.Gate >= d.Fibers)) {
			return fmt.Errorf("fault: %s gate %d out of range [0,%d)", e.Kind, e.Gate, d.Fibers)
		}
	case SchedStall:
		if e.Duration == 0 {
			return fmt.Errorf("fault: %s needs a positive duration", e.Kind)
		}
	default:
		return fmt.Errorf("fault: unknown kind %q", e.Kind)
	}
	return nil
}

// Spec describes a fault campaign before compilation: explicit events
// plus an optional randomized component whose targets and times are
// drawn from the derived fault stream.
type Spec struct {
	// Events are injected verbatim (after validation).
	Events []Event
	// RandomCount > 0 adds that many faults with kinds cycled from
	// RandomKinds, targets drawn uniformly, and start slots uniform in
	// [WindowStart, WindowEnd).
	RandomCount int
	// RandomKinds defaults to {ReceiverLoss, SOAStuckOff}.
	RandomKinds []Kind
	// WindowStart and WindowEnd bound random start slots.
	WindowStart, WindowEnd uint64
	// RandomDuration is the lifetime of random faults (0 = permanent).
	RandomDuration uint64
}

// Schedule is a compiled, deterministically ordered fault campaign.
type Schedule struct {
	events []Event
}

// Events returns the schedule in injection order (a copy).
func (s Schedule) Events() []Event {
	return append([]Event(nil), s.events...)
}

// Len reports the event count.
func (s Schedule) Len() int { return len(s.events) }

// Boundaries reports the sorted unique transition slots (fault begins
// and ends) in [lo, hi) — the epoch edges degradation metrics are
// segmented on.
func (s Schedule) Boundaries(lo, hi uint64) []uint64 {
	var b []uint64
	for _, e := range s.events {
		if e.Start >= lo && e.Start < hi {
			b = append(b, e.Start)
		}
		if end := e.End(); end != Permanent && end >= lo && end < hi {
			b = append(b, end)
		}
	}
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	uniq := b[:0]
	for _, x := range b {
		if len(uniq) == 0 || uniq[len(uniq)-1] != x {
			uniq = append(uniq, x)
		}
	}
	return uniq
}

// kindRank fixes the sort order of simultaneous events.
var kindRank = map[Kind]int{
	ReceiverLoss: 0, SOAStuckOff: 1, SOAStuckOn: 2, SchedStall: 3,
}

// less is the canonical event order: by start slot, then kind, then
// target coordinates — a total order, so Compile output never depends
// on draw or append order.
func less(a, b Event) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if kindRank[a.Kind] != kindRank[b.Kind] {
		return kindRank[a.Kind] < kindRank[b.Kind]
	}
	if a.Egress != b.Egress {
		return a.Egress < b.Egress
	}
	if a.Receiver != b.Receiver {
		return a.Receiver < b.Receiver
	}
	if a.Gate != b.Gate {
		return a.Gate < b.Gate
	}
	return a.Duration < b.Duration
}

// maxRandomFaults bounds a spec's random component, so a fault spec
// from an untrusted source cannot make Compile allocate without limit.
const maxRandomFaults = 1 << 16

// Compile validates the explicit events, expands the random component
// on the derived fault stream, and returns the canonicalized schedule.
// The result is a pure function of (spec, dims, seed): the fault RNG is
// seeded with sim.DeriveSeed(seed, StreamLabel) and never touched by
// any other component, so faulted runs stay byte-reproducible.
func Compile(spec Spec, d Dims, seed uint64) (Schedule, error) {
	if d.Ports <= 0 || d.Receivers <= 0 {
		return Schedule{}, fmt.Errorf("fault: dims need positive ports (%d) and receivers (%d)", d.Ports, d.Receivers)
	}
	events := append([]Event(nil), spec.Events...)
	if spec.RandomCount > 0 {
		if spec.WindowEnd <= spec.WindowStart {
			return Schedule{}, fmt.Errorf("fault: random window [%d,%d) is empty", spec.WindowStart, spec.WindowEnd)
		}
		if spec.WindowEnd-spec.WindowStart > math.MaxInt {
			return Schedule{}, fmt.Errorf("fault: random window [%d,%d) is too wide", spec.WindowStart, spec.WindowEnd)
		}
		if spec.RandomCount > maxRandomFaults {
			return Schedule{}, fmt.Errorf("fault: %d random faults, at most %d", spec.RandomCount, maxRandomFaults)
		}
		kinds := spec.RandomKinds
		if len(kinds) == 0 {
			kinds = []Kind{ReceiverLoss, SOAStuckOff}
		}
		rng := sim.NewRNG(sim.DeriveSeed(seed, StreamLabel))
		span := int(spec.WindowEnd - spec.WindowStart)
		for i := 0; i < spec.RandomCount; i++ {
			e := Event{
				Kind:     kinds[rng.Intn(len(kinds))],
				Start:    spec.WindowStart + uint64(rng.Intn(span)),
				Duration: spec.RandomDuration,
				Egress:   rng.Intn(d.Ports),
				Receiver: rng.Intn(d.Receivers),
			}
			if d.Fibers > 0 {
				e.Gate = rng.Intn(d.Fibers)
			}
			events = append(events, e)
		}
	}
	for i, e := range events {
		if e.Receiver == ReceiverHighest {
			switch e.Kind {
			case ReceiverLoss, SOAStuckOff, SOAStuckOn:
				e.Receiver = d.Receivers - 1
				events[i] = e
			}
		}
		if err := d.validate(e); err != nil {
			return Schedule{}, err
		}
	}
	sort.Slice(events, func(i, j int) bool { return less(events[i], events[j]) })
	return Schedule{events: events}, nil
}

// FailKReceivers builds a schedule that permanently fails k distinct
// receivers from slot 0, chosen by a deterministic shuffle of all
// (egress, receiver) pairs on the derived fault stream — the x axis of
// the graceful-degradation curve. Receiver indices count down from the
// highest (the redundant receiver fails before the primary), so for
// k <= ports on a dual-receiver switch every fault degrades a distinct
// egress from dual to single.
func FailKReceivers(k, ports, receivers int, seed uint64) (Schedule, error) {
	if ports <= 0 || receivers <= 0 {
		return Schedule{}, fmt.Errorf("fault: %d ports x %d receivers", ports, receivers)
	}
	if k < 0 || k > ports*receivers {
		return Schedule{}, fmt.Errorf("fault: cannot fail %d of %d receivers", k, ports*receivers)
	}
	rng := sim.NewRNG(sim.DeriveSeed(seed, StreamLabel))
	order := rng.Perm(ports)
	events := make([]Event, 0, k)
	for i := 0; i < k; i++ {
		// Walk the shuffled egress list once per receiver layer, highest
		// receiver index first.
		layer := i / ports
		e := order[i%ports]
		events = append(events, Event{
			Kind:     ReceiverLoss,
			Egress:   e,
			Receiver: receivers - 1 - layer,
		})
	}
	sort.Slice(events, func(i, j int) bool { return less(events[i], events[j]) })
	return Schedule{events: events}, nil
}
