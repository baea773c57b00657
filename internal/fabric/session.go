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
// timeline Run does. Unlike Run, a session may declare a timeline ending
// past packet.MaxTimelineSlots, as an open-ended measurement does;
// Advance then refuses any step that would take the clock past that
// bound.
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
	for _, g := range s.gens {
		g.SaveState(e)
	}
	e.End("gens")
	e.End("session")
}

// ResumeSessionState reads a "session" section from an open decoder —
// the counterpart of SaveState for embedding formats. The caller owns
// the decoder's Close and any surrounding framing. The first refusal of
// the decode, which names the line it was found on, is the error.
func ResumeSessionState(f *Fabric, gens []traffic.Generator, d *ckpt.Decoder) (*Session, error) {
	if len(gens) != f.cfg.Network.Hosts {
		return nil, fmt.Errorf("fabric: %d generators for %d hosts", len(gens), f.cfg.Network.Hosts)
	}
	d.Begin("session")
	rr := d.Record("run")
	base, warmup, measure := rr.Uint(), rr.Uint(), rr.Uint()
	finished := rr.Bool()
	rr.Done()
	end, err := timelineEnd(base, warmup, measure)
	d.Fail(err)
	f.LoadState(d)
	d.Begin("gens")
	nr := d.Record("ngens")
	if n := nr.Uint(); n != uint64(len(gens)) {
		d.Fail(fmt.Errorf("fabric: checkpoint carries %d generators, fabric has %d hosts", n, len(gens)))
	}
	nr.Done()
	for _, g := range gens {
		g.LoadState(d)
	}
	d.End("gens")
	d.End("session")
	if f.slot < base || f.slot > end {
		d.Fail(fmt.Errorf("fabric: restored clock %d outside session timeline [%d, %d]", f.slot, base, end))
	}
	if !finished && f.slot >= end {
		d.Fail(fmt.Errorf("fabric: restored clock %d at timeline end but session not finished", f.slot))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	f.inj = injectPlan{gens: gens, until: end}
	return &Session{
		f:        f,
		gens:     gens,
		base:     base,
		warmup:   warmup,
		measure:  measure,
		end:      end,
		finished: finished,
	}, nil
}
