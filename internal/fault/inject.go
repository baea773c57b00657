package fault

import (
	"sort"
)

// GateMode is the commanded health state of an SOA gate, mirrored by
// internal/optics (which keeps its own copy to avoid an import in the
// hot path). Values match optics.StuckMode.
type GateMode int

// Gate health states.
const (
	GateHealthy  GateMode = iota // gate follows its bias current
	GateStuckOff                 // gate dark regardless of drive
	GateStuckOn                  // gate transparent regardless of drive
)

// Injector replays a compiled Schedule against hooks registered by the
// components it targets. It is a pure event-list walker: Tick(slot)
// fires every transition with slot' <= slot in canonical order, so a
// run's fault sequence depends only on the schedule, never on call
// timing. Components the caller does not hook are skipped and counted,
// never silently dropped.
type Injector struct {
	events []Event
	trans  []transition
	next   int
	active int

	onReceiver func(egress, rx int, up bool)
	onGate     func(e Event, mode GateMode)
	onStall    func(slots uint64)

	// Applied and Skipped count transitions delivered to a hook vs.
	// dropped because no component registered for the kind.
	Applied, Skipped int
}

// transition is one edge of an event: begin (fault lands) or end
// (fault clears).
type transition struct {
	slot  uint64
	begin bool
	idx   int // index into events
}

// NewInjector prepares the transition list for a schedule. Ends sort
// before begins at the same slot so a fault that clears exactly when
// another lands never double-counts as two simultaneous actives.
func NewInjector(s Schedule) *Injector {
	inj := &Injector{events: s.Events()}
	for i, e := range inj.events {
		inj.trans = append(inj.trans, transition{slot: e.Start, begin: true, idx: i})
		end := e.End()
		if end != Permanent && !instantaneous(e.Kind) {
			inj.trans = append(inj.trans, transition{slot: end, begin: false, idx: i})
		}
	}
	sort.Slice(inj.trans, func(i, j int) bool {
		a, b := inj.trans[i], inj.trans[j]
		if a.slot != b.slot {
			return a.slot < b.slot
		}
		if a.begin != b.begin {
			return !a.begin // ends first
		}
		return a.idx < b.idx
	})
	return inj
}

// instantaneous kinds have no end transition: credit loss is a one-shot
// destruction, and a stall's lifetime is managed by the stalled
// component itself (the pipeline refills after Duration slots).
func instantaneous(k Kind) bool { return k == CreditLoss || k == SchedStall }

// OnReceiver registers the receiver-loss hook (up=false on begin).
func (inj *Injector) OnReceiver(fn func(egress, rx int, up bool)) { inj.onReceiver = fn }

// OnGate registers the SOA-gate hook; mode is GateHealthy on clear.
func (inj *Injector) OnGate(fn func(e Event, mode GateMode)) { inj.onGate = fn }

// OnStall registers the scheduler-stall hook (fired once per event,
// with the stall length in slots).
func (inj *Injector) OnStall(fn func(slots uint64)) { inj.onStall = fn }

// Active reports how many scheduled faults are currently in effect.
func (inj *Injector) Active() int { return inj.active }

// Tick fires every transition due at or before slot, in canonical
// order, and reports whether any fired. Call once per simulated slot
// (or at least once per epoch boundary); catching up after a gap is
// safe — transitions still fire in order.
func (inj *Injector) Tick(slot uint64) bool {
	fired := false
	for inj.next < len(inj.trans) && inj.trans[inj.next].slot <= slot {
		t := inj.trans[inj.next]
		inj.next++
		inj.apply(inj.events[t.idx], t.begin)
		fired = true
	}
	return fired
}

// apply dispatches one transition to its hook.
func (inj *Injector) apply(e Event, begin bool) {
	if begin && !instantaneous(e.Kind) {
		inj.active++
	} else if !begin {
		inj.active--
	}
	switch e.Kind {
	case ReceiverLoss:
		if inj.onReceiver == nil {
			inj.Skipped++
			return
		}
		inj.onReceiver(e.Egress, e.Receiver, !begin)
	case SOAStuckOff, SOAStuckOn:
		if inj.onGate == nil {
			inj.Skipped++
			return
		}
		mode := GateHealthy
		if begin {
			if e.Kind == SOAStuckOff {
				mode = GateStuckOff
			} else {
				mode = GateStuckOn
			}
		}
		inj.onGate(e, mode)
	case SchedStall:
		if inj.onStall == nil {
			inj.Skipped++
			return
		}
		inj.onStall(e.Duration)
	default:
		inj.Skipped++
		return
	}
	inj.Applied++
}
