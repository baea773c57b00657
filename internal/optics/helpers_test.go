package optics

import "repro/internal/units"

// Model readings only the tests use, to check the optical models
// against the paper's figures.

// AggregateBandwidth reports the fabric's aggregate data bandwidth for a
// given per-port line rate — the §VII scaling headline (50+ Tb/s).
func (p Params) AggregateBandwidth(lineRate units.Bandwidth) units.Bandwidth {
	return units.Bandwidth(float64(lineRate) * float64(p.Ports))
}

// Value reports the numeric BER of the target.
func (b BERTarget) Value() float64 {
	if b == BER1e10 {
		return 1e-10
	}
	return 1e-6
}

// Through reports the output power for a given input power in the
// current state: amplified when passing, suppressed to the extinction
// floor when dark.
func (s *SOA) Through(in units.DBm) units.DBm {
	if s.Passing() {
		return in.Add(s.Gain)
	}
	return in.Add(s.Gain).Add(s.Extinction)
}
