package timing

import (
	"math"

	"repro/internal/units"
)

// BurstCDR models the burst-mode clock-and-data recovery of §IV.C and
// the §VII improvement: with an optical switch, each cell reaches the
// receiver from a different serializer with independent phase (frequency
// is locked by the central reference), so the CDR must re-acquire phase
// at every cell. §VII proposes a dual-time-constant loop — a fast lock
// constant for the first bits of the packet, then a slow constant to
// ride out long run lengths.
type BurstCDR struct {
	// LineRate sets the bit time.
	LineRate units.Bandwidth
	// FastTau is the acquisition loop time constant in bits: phase
	// error decays by e every FastTau transition-bearing bits.
	FastTau float64
	// LockTolerance is the residual phase error (fraction of one UI)
	// at which data recovery is reliable.
	LockTolerance float64
}

// DemonstratorCDR returns representative burst-mode receiver values at
// the demonstrator line rate.
func DemonstratorCDR() BurstCDR {
	return BurstCDR{
		LineRate:      units.OSMOSISPortRate,
		FastTau:       12,
		LockTolerance: 0.05,
	}
}

// AcquisitionBits reports how many preamble bits the fast loop needs to
// pull a worst-case half-UI phase error inside the lock tolerance.
func (c BurstCDR) AcquisitionBits() int {
	if c.LockTolerance <= 0 || c.LockTolerance >= 0.5 {
		return 0
	}
	// 0.5 * exp(-n/FastTau) <= LockTolerance
	n := c.FastTau * math.Log(0.5/c.LockTolerance)
	return int(math.Ceil(n))
}

// AcquisitionTime reports the guard-time contribution of acquisition.
func (c BurstCDR) AcquisitionTime() units.Time {
	return units.Time(c.AcquisitionBits()) * units.BitTime(c.LineRate)
}
