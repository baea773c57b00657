package fabric

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/traffic"
)

// Session is an incrementally drivable fabric run: the same warm-up plus
// measurement timeline Run executes in one call, advanced in
// caller-sized steps with checkpoint/restore at every pause.
//
// Determinism contract: a Session produces byte-identical metrics (see
// Metrics.Fingerprint) to Run regardless of how Advance calls partition
// the timeline, because shards only interact at window barriers and
// Advance only pauses at barriers — the pause points change the
// execution schedule, never the state. A Session saved at slot T and
// resumed on a fresh fabric (at any shard count) finishes with the same
// fingerprint as its uninterrupted twin. A fabric drives one timeline at
// a time: starting a Run or another Session on it abandons this one.
type Session struct {
	f    *Fabric
	gens []traffic.Generator

	base            uint64 // fabric slot when the session started
	warmup, measure uint64
	end             uint64 // absolute slot where the run completes
	finished        bool
}

// StartSession begins a warm-up + measurement run on f, arming the same
// timeline Run does. Every generator must be checkpointable (implement
// traffic.StateCodec) for Save to work; this is verified at save time,
// not here, so non-checkpointable sessions can still run. Unlike Run, a
// session may declare a timeline ending past packet.MaxTimelineSlots,
// as an open-ended measurement does; Advance then refuses any step that
// would take the clock past that bound.
func StartSession(f *Fabric, gens []traffic.Generator, warmup, measure uint64) (*Session, error) {
	if err := f.begin(gens, warmup, measure); err != nil {
		return nil, err
	}
	s := &Session{
		f:       f,
		gens:    gens,
		base:    f.slot,
		warmup:  warmup,
		measure: measure,
		end:     f.inj.until,
	}
	if s.end == s.base {
		s.finish()
	}
	return s, nil
}

// finish closes the timeline the way Run does.
func (s *Session) finish() {
	s.f.finish(s.measure)
	s.finished = true
}

// Advance drives the run forward by at most maxSlots packet cycles; the
// window that spends the budget is cut short there, so the pause is a
// barrier. It reports whether the run has completed its warm-up +
// measurement timeline. A call that would take the clock past
// packet.MaxTimelineSlots is refused before it steps.
func (s *Session) Advance(maxSlots uint64) (bool, error) {
	if s.finished {
		return true, nil
	}
	if err := s.f.advance(maxSlots); err != nil {
		return false, err
	}
	if s.f.slot >= s.end {
		s.finish()
	}
	return s.finished, nil
}

// Done reports whether the session's timeline has completed.
func (s *Session) Done() bool { return s.finished }

// Slot reports the fabric clock.
func (s *Session) Slot() uint64 { return s.f.slot }

// Fabric exposes the driven fabric (for Drain and inspection).
func (s *Session) Fabric() *Fabric { return s.f }

// Metrics exposes the run's measurements.
func (s *Session) Metrics() *Metrics { return s.f.Metrics() }

// SaveState writes the session snapshot as a "session" section on an
// open encoder, so embedding formats (the osmosisd job checkpoint) can
// wrap it in their own framing. Save is the standalone form.
func (s *Session) SaveState(e *ckpt.Encoder) {
	e.Begin("session")
	e.Put("run", ckpt.Uint(s.base), ckpt.Uint(s.warmup), ckpt.Uint(s.measure),
		ckpt.Bool(s.finished))
	s.f.SaveState(e)
	e.Begin("gens")
	e.Put("ngens", ckpt.Uint(uint64(len(s.gens))))
	for h, g := range s.gens {
		codec, ok := g.(traffic.StateCodec)
		if !ok {
			e.Fail(fmt.Errorf("fabric: host %d generator %T is not checkpointable", h, g))
			break
		}
		codec.SaveState(e)
	}
	e.End("gens")
	e.End("session")
}

// ResumeSessionState reads a "session" section from an open decoder —
// the counterpart of SaveState for embedding formats. The caller owns
// the decoder's trailer (Close) and any surrounding framing.
func ResumeSessionState(f *Fabric, gens []traffic.Generator, d *ckpt.Decoder) (*Session, error) {
	if len(gens) != f.cfg.Network.Hosts {
		return nil, fmt.Errorf("fabric: %d generators for %d hosts", len(gens), f.cfg.Network.Hosts)
	}
	if err := d.Begin("session"); err != nil {
		return nil, err
	}
	rr := d.Record("run")
	base, warmup, measure := rr.Uint(), rr.Uint(), rr.Uint()
	finished := rr.Bool()
	if err := rr.Done(); err != nil {
		return nil, err
	}
	end, err := timelineEnd(base, warmup, measure)
	if err != nil {
		return nil, err
	}
	if err := f.LoadState(d); err != nil {
		return nil, err
	}
	if err := d.Begin("gens"); err != nil {
		return nil, err
	}
	nr := d.Record("ngens")
	ngens := nr.Uint()
	if err := nr.Done(); err != nil {
		return nil, err
	}
	if int(ngens) != len(gens) {
		return nil, fmt.Errorf("fabric: checkpoint carries %d generators, fabric has %d hosts", ngens, len(gens))
	}
	for h, g := range gens {
		codec, ok := g.(traffic.StateCodec)
		if !ok {
			return nil, fmt.Errorf("fabric: host %d generator %T is not checkpointable", h, g)
		}
		if err := codec.LoadState(d); err != nil {
			return nil, fmt.Errorf("fabric: host %d generator: %w", h, err)
		}
	}
	if err := d.End("gens"); err != nil {
		return nil, err
	}
	if err := d.End("session"); err != nil {
		return nil, err
	}
	s := &Session{
		f:        f,
		gens:     gens,
		base:     base,
		warmup:   warmup,
		measure:  measure,
		end:      end,
		finished: finished,
	}
	if f.slot < base || f.slot > s.end {
		return nil, fmt.Errorf("fabric: restored clock %d outside session timeline [%d, %d]", f.slot, base, s.end)
	}
	if !finished && f.slot >= s.end {
		return nil, fmt.Errorf("fabric: restored clock %d at timeline end but session not finished", f.slot)
	}
	f.inj = injectPlan{gens: gens, until: s.end}
	return s, nil
}
