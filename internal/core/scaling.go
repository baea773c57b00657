package core

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/units"
)

// Scaling envelope of §VII: the OSMOSIS architecture scales through the
// product of WDM wavelengths, fibers (space multiplexing), and per-port
// rate, with the FLPPR scheduler absorbing the extra iterations that
// higher port counts require.

// ScalePoint is one feasible single-stage configuration.
type ScalePoint struct {
	// Ports is colors * fibers.
	Ports int
	// Aggregate is the stage's total bandwidth.
	Aggregate units.Bandwidth
	// SchedulerIterations is log2(Ports), the iteration budget FLPPR
	// must fit into one packet cycle via parallelism.
	SchedulerIterations int
	// CellTime is the packet cycle at this rate for 256 B cells.
	CellTime units.Time
}

// NewScalePoint validates and derives a configuration.
func NewScalePoint(colors, fibers int, rate units.Bandwidth) (ScalePoint, error) {
	if colors <= 0 || fibers <= 0 {
		return ScalePoint{}, fmt.Errorf("core: colors %d and fibers %d must be positive", colors, fibers)
	}
	if rate <= 0 {
		return ScalePoint{}, fmt.Errorf("core: rate must be positive")
	}
	ports := colors * fibers
	return ScalePoint{
		Ports:               ports,
		Aggregate:           units.Bandwidth(float64(rate) * float64(ports)),
		SchedulerIterations: sched.Log2Ceil(ports),
		CellTime:            units.TransmissionTime(256, rate),
	}, nil
}

// DemonstratorScale is the built system: 8 colors x 8 fibers x 40 Gb/s.
func DemonstratorScale() ScalePoint {
	p, _ := NewScalePoint(8, 8, 40*units.GigabitPerSecond)
	return p
}

// FLPPRSpeedupNeeded reports how many sub-schedulers FLPPR needs so all
// required iterations complete within one cell time, given that one
// iteration takes one cell time of the demonstrator (51.2 ns) scaled by
// an ASIC speedup factor.
func (p ScalePoint) FLPPRSpeedupNeeded(asicSpeedup float64) int {
	if asicSpeedup < 1 {
		asicSpeedup = 1
	}
	demoIter := DemonstratorScale().CellTime // one iteration per 51.2 ns in FPGA
	iterTime := units.Time(float64(demoIter) / asicSpeedup)
	if p.CellTime <= 0 {
		return p.SchedulerIterations
	}
	// Sub-schedulers work in parallel, one matching completing per cell
	// cycle: need K >= iterations * iterTime / cellTime.
	k := int64((units.Time(p.SchedulerIterations)*iterTime + p.CellTime - units.Picosecond) / p.CellTime)
	if k < 1 {
		k = 1
	}
	return int(k)
}
