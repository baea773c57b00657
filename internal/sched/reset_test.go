package sched

import "repro/internal/sim"

// Reset rewinds a scheduler to its freshly constructed state. No program
// path reuses a scheduler across runs, so it lives with its tests: they
// pin that a rewind zeroes pointer and pipeline state in place.
type resetter interface {
	Scheduler
	Reset()
}

// Reset zeroes all pointer and pipeline state in place; nothing is
// reallocated.
func (f *FLPPR) Reset() {
	for s := 0; s < f.k; s++ {
		clear(f.grantPtr[s])
		clear(f.acceptPtr[s])
	}
	for j := range f.pend {
		f.pend[j].m.Reset()
		f.pend[j].sub = j % f.k
	}
	f.head = 0
}

// Reset zeroes the pointer slices in place — never reallocated — so
// Reset is allocation-free and no stale snapshot can keep aliasing the
// pointer state the arbiter mutates.
func (s *ISLIP) Reset() {
	clear(s.grantPtr)
	clear(s.acceptPtr)
}

// Reset is a no-op: LQF keeps no state between ticks.
func (l *LQF) Reset() {}

// Reset re-seeds the random source.
func (p *PIM) Reset() { p.rng = sim.NewRNG(p.seed) }

// Reset zeroes the pointers and the delay ring in place;
// nothing is reallocated.
func (s *PipelinedISLIP) Reset() {
	clear(s.grantPtr)
	clear(s.acceptPtr)
	for i := range s.delay {
		s.delay[i].Reset()
	}
	s.pos = 0
}
