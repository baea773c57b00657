package timing

import (
	"math"
	"testing"

	"repro/internal/packet"
	"repro/internal/units"
)

func TestClockTreeBounds(t *testing.T) {
	ct := DemonstratorClockTree()
	// RMS jitter of 3 stages at 80 ps each: sqrt(3)*80 ~ 139 ps.
	if rms := ct.RMSJitter(); rms < 130*units.Picosecond || rms > 150*units.Picosecond {
		t.Errorf("rms jitter %v", rms)
	}
	// Window: 2*200ps static + 6*sqrt2*139ps ~ 400 + 1178 ps ~ 1.6 ns.
	w := ct.AlignmentWindow()
	if w < units.Nanosecond || w > 2*units.Nanosecond {
		t.Errorf("alignment window %v", w)
	}
}

func TestAlignerSpreadWithinWindow(t *testing.T) {
	ct := DemonstratorClockTree()
	// 64 adapters spread over a 50 m machine room.
	distances := make([]float64, 64)
	for i := range distances {
		distances[i] = 5 + float64(i%23)
	}
	a := NewAligner(ct, distances, 1)
	// The measured spread fits the analytic window, which fits a 2 ns
	// jitter share of the guard.
	if spread, window := a.MeasureSpread(500), ct.AlignmentWindow(); spread > window || window > 2*units.Nanosecond {
		t.Errorf("measured spread %v, analytic window %v, budget 2ns", spread, window)
	}
	// Propagation delay itself must be fully compensated: with zero
	// residual and zero jitter, arrivals are exact.
	perfect := ct
	perfect.CalibrationResidual = 0
	perfect.JitterPerLevel = 0
	p := NewAligner(perfect, distances, 2)
	if spread := p.MeasureSpread(100); spread != 0 {
		t.Errorf("perfect calibration still spreads %v", spread)
	}
}

// TestJitterDrawMomentsMatchGaussian pins the Irwin-Hall approximation
// the jitterDraw comment promises: a 12-uniform sum scaled by the tree
// RMS must match N(0, RMSJitter²) in its first two moments and never
// leave the hard ±6σ support of the sum.
func TestJitterDrawMomentsMatchGaussian(t *testing.T) {
	ct := DemonstratorClockTree()
	a := NewAligner(ct, []float64{10}, 42)
	rms := float64(ct.RMSJitter())
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		j := float64(a.jitterDraw())
		if math.Abs(j) > 6*rms {
			t.Fatalf("draw %.0f ps outside the ±6σ Irwin-Hall support (σ = %.0f ps)", j, rms)
		}
		sum += j
		sumSq += j * j
	}
	mean := sum / n
	// Standard error of the mean is σ/√n ≈ 0.3 ps at σ ≈ 139 ps; a 5σ
	// band keeps the deterministic seed comfortably inside.
	if tol := 5 * rms / math.Sqrt(n); math.Abs(mean) > tol {
		t.Errorf("jitter mean %.2f ps, want |mean| < %.2f ps", mean, tol)
	}
	sd := math.Sqrt(sumSq/n - mean*mean)
	// 2% relative: >10 standard errors of the sample σ at this n, yet
	// tight enough to catch a 3-term sum (σ off by √(3/12) = 2x) or a
	// forgotten -6 centering instantly.
	if math.Abs(sd-rms) > 0.02*rms {
		t.Errorf("jitter stddev %.2f ps, want %.2f ps ± 2%%", sd, rms)
	}
	// Zero-jitter trees must draw exactly zero (no RNG consumption noise).
	quiet := ct
	quiet.JitterPerLevel = 0
	q := NewAligner(quiet, []float64{10}, 7)
	for i := 0; i < 100; i++ {
		if j := q.jitterDraw(); j != 0 {
			t.Fatalf("zero-RMS tree drew %v", j)
		}
	}
}

func TestAlignerDetectsBadCalibration(t *testing.T) {
	ct := DemonstratorClockTree()
	ct.CalibrationResidual = 10 * units.Nanosecond // hopeless calibration
	a := NewAligner(ct, []float64{5, 50}, 3)
	if spread, window := a.MeasureSpread(200), ct.AlignmentWindow(); spread <= window && window <= 2*units.Nanosecond {
		t.Errorf("10 ns residual passed a 2 ns budget: spread %v, window %v", spread, window)
	}
}

func TestGuardBudgetComposition(t *testing.T) {
	// §IV.C decomposition for the demonstrator: 5 ns SOA + CDR + jitter
	// must fit the 8 ns guard of the OSMOSIS format.
	cdr := DemonstratorCDR()
	ct := DemonstratorClockTree()
	g := GuardBudget{
		SOASwitching:   5 * units.Nanosecond,
		CDRAcquisition: cdr.AcquisitionTime(),
		ArrivalJitter:  ct.AlignmentWindow(),
	}
	format := packet.OSMOSISFormat()
	if !g.Fits(format.GuardTime) {
		t.Errorf("guard budget %v (SOA %v + CDR %v + jitter %v) exceeds format guard %v",
			g.Total(), g.SOASwitching, g.CDRAcquisition, g.ArrivalJitter, format.GuardTime)
	}
	// §VII: sub-ns SOAs leave room to shrink the guard strongly.
	gFast := GuardBudget{
		SOASwitching:   800 * units.Picosecond,
		CDRAcquisition: g.CDRAcquisition,
		ArrivalJitter:  g.ArrivalJitter,
	}
	if gFast.Total() >= g.Total() {
		t.Error("sub-ns SOA should shrink the total budget")
	}
}

func TestCDRAcquisition(t *testing.T) {
	c := DemonstratorCDR()
	bits := c.AcquisitionBits()
	if bits <= 0 || bits > 64 {
		t.Errorf("acquisition bits %d implausible", bits)
	}
	// At 40 Gb/s (25 ps/bit) the acquisition must be a sub-ns to few-ns
	// contribution.
	at := c.AcquisitionTime()
	if at <= 0 || at > 3*units.Nanosecond {
		t.Errorf("acquisition time %v", at)
	}
}

// phaseTrace simulates acquisition as the oracle for the analytic
// AcquisitionBits bound: starting from an initial phase error (UI), it
// returns the per-bit error over n bits, switching from the fast loop
// constant to a slow tracking constant (4000 bits) once within
// tolerance, with a 1 ppm frequency offset drifting the phase.
func phaseTrace(c BurstCDR, initial float64, n int) []float64 {
	const slowTau, drift = 4000, 1e-6
	trace := make([]float64, n)
	err := initial
	locked := false
	for i := 0; i < n; i++ {
		tau := c.FastTau
		if locked {
			tau = slowTau
		}
		err = err*math.Exp(-1/tau) + drift
		if math.Abs(err) <= c.LockTolerance {
			locked = true
		}
		trace[i] = err
	}
	return trace
}

func TestCDRTraceMatchesAnalyticBound(t *testing.T) {
	c := DemonstratorCDR()
	trace := phaseTrace(c, 0.5, 200)
	bound := c.AcquisitionBits()
	// By the analytic bound the error must be within tolerance.
	if math.Abs(trace[bound]) > c.LockTolerance*1.05 {
		t.Errorf("phase error %.4f after %d bits, tolerance %.3f",
			trace[bound], bound, c.LockTolerance)
	}
	// And must stay locked afterwards (slow loop rides the drift).
	for i := bound + 1; i < len(trace); i++ {
		if math.Abs(trace[i]) > 0.5 {
			t.Fatalf("lost lock at bit %d", i)
		}
	}
}

func TestCDRSupportsGuard(t *testing.T) {
	c := DemonstratorCDR()
	if at := c.AcquisitionTime(); at > packet.OSMOSISFormat().GuardTime {
		t.Errorf("acquisition %v exceeds the demonstrator guard", at)
	}
	if at := c.AcquisitionTime(); at <= 100*units.Picosecond {
		t.Errorf("acquisition %v fits a 0.1 ns guard; it should be too short", at)
	}
}
