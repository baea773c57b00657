package core

import "repro/internal/units"

// The §VII outlook the scaling tests check. The scaling experiment sweeps
// the same point inline and draws the electronic limit as a constant
// series; these are the tests' names for those claims.

// ElectronicLimit is the paper's single-stage electronic ceiling
// (§VII): 6-8 Tb/s aggregate given pin counts and CMOS speeds.
const ElectronicLimit units.Bandwidth = 8 * units.TerabitPerSecond

// OutlookScale is the §VII claim: 256 ports at 200 Gb/s in one stage,
// beyond 50 Tb/s aggregate.
func OutlookScale() ScalePoint {
	p, _ := NewScalePoint(16, 16, 200*units.GigabitPerSecond)
	return p
}

// ExceedsElectronicLimit reports whether a scale point is beyond what a
// single-stage electronic switch could offer.
func (p ScalePoint) ExceedsElectronicLimit() bool {
	return p.Aggregate > ElectronicLimit
}
