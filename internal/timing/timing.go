// Package timing models the synchronization machinery of §IV.C and
// ref [20] ("Hierarchical system synchronization and signaling for
// high-performance low-latency interconnects"): all cells must arrive
// at the bufferless optical crossbar aligned to the packet cycle while
// the SOAs reconfigure, so the guard time decomposes into
//
//	guard = SOA switching + burst-mode CDR phase acquisition
//	        + residual packet-arrival jitter.
//
// The models here quantify the two electronic terms: a hierarchical
// reference-clock distribution tree whose accumulated skew plus
// per-adapter launch-calibration error bounds the arrival jitter, and a
// dual-time-constant burst-mode receiver whose acquisition length sets
// the CDR term (§VII proposes fast-then-slow phase locking to shrink
// it).
package timing

import (
	"math"

	"repro/internal/sim"
	"repro/internal/units"
)

// ClockTree is a hierarchical reference-clock distribution: a root
// oscillator fanned out over Levels of distribution stages, each adding
// bounded skew and jitter. The demonstrator distributes a central
// reference so serializers run frequency-locked (phase still free).
type ClockTree struct {
	// Levels of distribution (root -> rack -> shelf -> adapter).
	Levels int
	// SkewPerLevel is the static, calibratable skew bound per stage.
	SkewPerLevel units.Time
	// JitterPerLevel is the dynamic (uncalibratable) jitter RMS per stage.
	JitterPerLevel units.Time
	// CalibrationResidual is the per-adapter launch-offset error left
	// after the deskew calibration of ref [20].
	CalibrationResidual units.Time
}

// DemonstratorClockTree returns representative 2005-era numbers: a
// three-level distribution with sub-100 ps per-stage jitter and 200 ps
// calibration residual.
func DemonstratorClockTree() ClockTree {
	return ClockTree{
		Levels:              3,
		SkewPerLevel:        500 * units.Picosecond,
		JitterPerLevel:      80 * units.Picosecond,
		CalibrationResidual: 200 * units.Picosecond,
	}
}

// RMSJitter reports the root-sum-square dynamic jitter of one path.
func (ct ClockTree) RMSJitter() units.Time {
	perLevel := float64(ct.JitterPerLevel)
	return units.Time(math.Round(math.Sqrt(float64(ct.Levels)) * perLevel))
}

// AlignmentWindow reports the arrival window that must be budgeted in
// the guard time after calibration: the calibration residual between
// two adapters plus a 6-sigma allowance on the combined dynamic jitter
// of both paths.
func (ct ClockTree) AlignmentWindow() units.Time {
	static := 2 * ct.CalibrationResidual
	dynamic := units.Time(math.Round(6 * math.Sqrt2 * float64(ct.RMSJitter())))
	return static + dynamic
}

// Adapter is one ingress adapter's timing state relative to the switch.
type Adapter struct {
	// Distance is the one-way fiber length to the crossbar in meters.
	Distance float64
	// LaunchOffset is the calibrated pre-launch advance; ideal value is
	// the propagation delay so cells arrive at the slot boundary.
	LaunchOffset units.Time
}

// Aligner calibrates a set of adapters against a clock tree and
// evaluates the arrival alignment at the crossbar.
type Aligner struct {
	Tree     ClockTree
	Adapters []Adapter
	rng      *sim.RNG
}

// NewAligner places n adapters at the given distances and calibrates
// their launch offsets, drawing static residuals from the tree's
// calibration bound (uniform) with the given seed.
func NewAligner(tree ClockTree, distances []float64, seed uint64) *Aligner {
	a := &Aligner{Tree: tree, rng: sim.NewRNG(seed)}
	for _, d := range distances {
		prop := units.FiberDelay(d)
		res := units.Time(a.rng.Intn(2*int(tree.CalibrationResidual)+1)) - tree.CalibrationResidual
		a.Adapters = append(a.Adapters, Adapter{
			Distance:     d,
			LaunchOffset: prop + res,
		})
	}
	return a
}

// ArrivalTime reports when adapter i's cell launched for slot boundary
// t actually arrives at the crossbar, with a fresh dynamic jitter draw.
func (a *Aligner) ArrivalTime(i int, t units.Time) units.Time {
	ad := a.Adapters[i]
	prop := units.FiberDelay(ad.Distance)
	// launch at t - LaunchOffset, arrive after prop, plus dynamic jitter
	// approximated as a 12-uniform Irwin-Hall sum (see jitterDraw).
	jit := a.jitterDraw()
	return t - ad.LaunchOffset + prop + jit
}

func (a *Aligner) jitterDraw() units.Time {
	rms := float64(a.Tree.RMSJitter())
	if rms == 0 {
		return 0
	}
	// Irwin-Hall approximation: the sum of 12 U(0,1) draws has mean 6
	// and variance 12/12 = 1, so (sum - 6) ~ N(0,1) with support
	// [-6, 6] — standard normal moments without a Box-Muller transform,
	// and draws stay bounded so one sample can never blow the window.
	s := 0.0
	for k := 0; k < 12; k++ {
		s += a.rng.Float64()
	}
	return units.Time(math.Round((s - 6) * rms))
}

// MeasureSpread launches one cell per adapter for the same slot
// boundary over trials slots and reports the largest observed arrival
// spread (max - min within a slot).
func (a *Aligner) MeasureSpread(trials int) units.Time {
	var worst units.Time
	for tr := 0; tr < trials; tr++ {
		t := units.Time(tr+1) * 51200 * units.Picosecond
		lo, hi := units.Infinity, -units.Infinity
		for i := range a.Adapters {
			at := a.ArrivalTime(i, t)
			if at < lo {
				lo = at
			}
			if at > hi {
				hi = at
			}
		}
		if hi-lo > worst {
			worst = hi - lo
		}
	}
	return worst
}

// GuardBudget decomposes a cell guard time per §IV.C.
type GuardBudget struct {
	// SOASwitching is the gate reconfiguration term.
	SOASwitching units.Time
	// CDRAcquisition is the burst-mode phase re-acquisition term.
	CDRAcquisition units.Time
	// ArrivalJitter is the packet-alignment term.
	ArrivalJitter units.Time
}

// Total reports the guard time the cell format must reserve.
func (g GuardBudget) Total() units.Time {
	return g.SOASwitching + g.CDRAcquisition + g.ArrivalJitter
}

// Fits reports whether the budget fits a format's guard allowance.
func (g GuardBudget) Fits(guard units.Time) bool { return g.Total() <= guard }
