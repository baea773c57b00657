// Package optics models the photonic data path of the OSMOSIS
// demonstrator (§V, Fig. 5): a 64-port broadcast-and-select crossbar
// built from 8 broadcast modules (one per fiber, each carrying 8 WDM
// colors through an amplifier and a 1:128 star coupler) and 128
// switching modules (two per egress for the dual-receiver option), each
// a fast SOA 1×8 fiber-selector followed by a fast SOA 1×8
// wavelength-selector.
//
// The models capture what the optical layer contributes to the system
// study: per-path power budgets (feasibility), guard times (bandwidth
// loss), SOA gating states and crosstalk (selectivity), static versus
// per-packet control power, and the XGM/OSNR penalty behaviour that
// motivates DPSK modulation (§VII, Fig. 10).
package optics

import (
	"fmt"

	"repro/internal/units"
)

// SOA is a semiconductor optical amplifier used as an on/off gate.
type SOA struct {
	// Gain applied to the signal when the gate is on.
	Gain units.DB
	// Extinction is the off-state suppression (negative dB, e.g. -40).
	Extinction units.DB
	// GuardTime is the switching (state-change) time; ~5 ns for the
	// electrically controlled devices of §II, sub-ns under DPSK
	// saturation operation (§VII).
	GuardTime units.Time
	// NoiseFigure degrades OSNR per pass.
	NoiseFigure units.DB

	on    bool
	stuck StuckMode
}

// StuckMode is the health state of a gate: a stuck gate ignores its
// drive current, the fault class the §VI.A BIST loop must catch.
type StuckMode int

// Gate health states.
const (
	// Healthy gates follow their commanded state.
	Healthy StuckMode = iota
	// StuckOff gates stay dark regardless of drive — paths through them
	// are severed.
	StuckOff
	// StuckOn gates stay transparent regardless of drive — the module
	// loses selectivity and leaks a second input (crosstalk fault).
	StuckOn
)

// String names the mode for reports.
func (m StuckMode) String() string {
	switch m {
	case StuckOff:
		return "stuck-off"
	case StuckOn:
		return "stuck-on"
	}
	return "healthy"
}

// DefaultSOA returns the gate parameters used across the demonstrator
// models, representative of 2005-era InP SOAs.
func DefaultSOA() SOA {
	return SOA{
		Gain:        12,
		Extinction:  -40,
		GuardTime:   5 * units.Nanosecond,
		NoiseFigure: 8,
	}
}

// On reports the commanded gate state (what the control plane asked
// for; a stuck gate may not follow it — see Passing).
func (s *SOA) On() bool { return s.on }

// Passing reports whether light actually gets through: the commanded
// state overridden by any stuck fault.
func (s *SOA) Passing() bool {
	switch s.stuck {
	case StuckOff:
		return false
	case StuckOn:
		return true
	}
	return s.on
}

// Stuck reports the gate's health state.
func (s *SOA) Stuck() StuckMode { return s.stuck }

// ForceStuck wedges the gate in the given mode (Healthy clears the
// fault). The commanded state is preserved, so clearing a fault
// restores the state the control plane last asked for.
func (s *SOA) ForceStuck(m StuckMode) { s.stuck = m }

// Set switches the gate, returning the guard time the data path must
// blank if the optical state actually changed. A stuck gate records the
// commanded state but its optical output never transitions, so no guard
// time is incurred.
func (s *SOA) Set(on bool) units.Time {
	if s.on == on {
		return 0
	}
	s.on = on
	if s.stuck != Healthy {
		return 0
	}
	return s.GuardTime
}

// String formats the gate for diagnostics.
func (s *SOA) String() string {
	state := "off"
	if s.on {
		state = "on"
	}
	return fmt.Sprintf("soa{%s gain=%vdB guard=%v}", state, float64(s.Gain), s.GuardTime)
}
