package timing

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Model probes only the tests read: the experiments budget the guard
// time from the closed-form bounds, and these let the tests check the
// bounds against the component models.

// WorstCaseSkew reports the uncalibrated skew bound between any two
// adapters (two independent paths of Levels stages).
func (ct ClockTree) WorstCaseSkew() units.Time {
	return 2 * units.Time(ct.Levels) * ct.SkewPerLevel
}

// VerifyAlignment checks that the measured spread fits the analytic
// window and that the window fits the given jitter share of the guard.
func (a *Aligner) VerifyAlignment(trials int, jitterBudget units.Time) error {
	window := a.Tree.AlignmentWindow()
	spread := a.MeasureSpread(trials)
	if spread > window {
		return fmt.Errorf("timing: measured spread %v exceeds analytic window %v", spread, window)
	}
	if window > jitterBudget {
		return fmt.Errorf("timing: alignment window %v exceeds the %v jitter budget", window, jitterBudget)
	}
	return nil
}

// MaxRunLength reports the longest transition-free run (in bits) the
// slow loop tolerates before frequency offset drifts the sampling phase
// out of tolerance: drift per bit = FreqOffsetPPM * 1e-6 UI.
func (c BurstCDR) MaxRunLength() int {
	driftPerBit := c.FreqOffsetPPM * 1e-6
	if driftPerBit <= 0 {
		return math.MaxInt32
	}
	margin := 0.5 - c.LockTolerance
	return int(margin / driftPerBit)
}

// SupportsCell checks a cell format against the receiver: the
// acquisition must fit the guard budget and the FEC-scrambled payload's
// run lengths (bounded by the 8B-coded framing, ~64 bits worst case)
// must stay within the slow loop's tolerance.
func (c BurstCDR) SupportsCell(guard units.Time, worstRunBits int) error {
	if at := c.AcquisitionTime(); at > guard {
		return fmt.Errorf("timing: CDR acquisition %v exceeds guard %v", at, guard)
	}
	if mr := c.MaxRunLength(); worstRunBits > mr {
		return fmt.Errorf("timing: run length %d exceeds CDR tolerance %d bits", worstRunBits, mr)
	}
	return nil
}

// PhaseTrace simulates acquisition: starting from initial phase error
// (UI), it returns the per-bit error trajectory over n bits, switching
// from the fast to the slow constant once within tolerance. Used by
// tests to validate the analytic AcquisitionBits bound.
func (c BurstCDR) PhaseTrace(initial float64, n int) []float64 {
	trace := make([]float64, n)
	err := initial
	locked := false
	drift := c.FreqOffsetPPM * 1e-6
	for i := 0; i < n; i++ {
		tau := c.FastTau
		if locked {
			tau = c.SlowTau
		}
		err = err*math.Exp(-1/tau) + drift
		if math.Abs(err) <= c.LockTolerance {
			locked = true
		}
		trace[i] = err
	}
	return trace
}
