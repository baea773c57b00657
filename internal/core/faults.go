package core

import (
	"repro/internal/crossbar"
	"repro/internal/fault"
	"repro/internal/optics"
	"repro/internal/traffic"
)

// FaultDims reports the fault target space of this system: the switch
// dimensions plus the optical fiber count (SOA gate indices).
func (s *System) FaultDims() fault.Dims {
	return fault.Dims{
		Ports:     s.cfg.Ports,
		Receivers: s.cfg.Receivers,
		Fibers:    s.cfg.Optics.Fibers(),
	}
}

// CompileFaults compiles the configured fault campaign against the
// system's dimensions, expanding any random component on the fault
// stream derived from the system seed.
func (s *System) CompileFaults() (fault.Schedule, error) {
	return fault.Compile(s.cfg.Faults, s.FaultDims(), s.cfg.Seed)
}

// AttachFaults wires one injector to the cell engine (receiver loss,
// scheduler stalls) and the optical fabric (SOA gate faults on the
// switching module serving the targeted egress receiver). Gate faults
// change what the §VI.A self-tests observe — path health, selectivity,
// leak detection — while the cell engine models their service impact
// through the receiver-loss channel. Link BER bursts live at the link
// layer and are exercised there (internal/link).
func (s *System) AttachFaults(sw *crossbar.Switch, inj *fault.Injector) {
	sw.AttachFaults(inj)
	inj.OnGate(func(e fault.Event, mode fault.GateMode) {
		m := s.Crossbar.ModuleOf(e.Egress, e.Receiver)
		// Targets were validated at Compile time against FaultDims.
		//lint:ignore errcheck validated at schedule compile time; see fault.Dims
		_ = s.Crossbar.SetGateFault(m, e.Gate, optics.StuckMode(mode))
	})
}

// DegradationResult reports one faulted measurement: the compiled
// campaign, the per-epoch segmentation of the measurement window at
// every in-window fault transition, and the whole-window metrics.
type DegradationResult struct {
	// Schedule is the compiled campaign the run replayed.
	Schedule fault.Schedule
	// Epochs segments the measurement window at fault transitions; a
	// campaign with K in-window transitions yields K+1 epochs.
	Epochs []crossbar.Epoch
	// Metrics is the whole-window aggregate (same collector as a healthy
	// RunWorkload).
	Metrics *crossbar.Metrics
	// Applied and Skipped count injector transitions delivered to hooks
	// vs. dropped for want of one (a component the run did not attach).
	Applied, Skipped int
	// Stalls is the number of slots the arbiter spent frozen.
	Stalls uint64
	// ReceiversDown and GateFaults report the damage still in effect when
	// the run ended.
	ReceiversDown int
	GateFaults    int
}

// RunDegradation simulates the switch under the configured fault
// campaign, cutting a metrics epoch at every fault transition inside
// the measurement window. With a zero campaign it degenerates to
// RunWorkload plus a single epoch spanning the window; with one, the
// traffic processes are untouched (faults draw from their own derived
// stream), so healthy and faulted runs see identical arrivals.
func (s *System) RunDegradation(t traffic.Config, warmup, measure uint64) (*DegradationResult, error) {
	schedule, err := s.CompileFaults()
	if err != nil {
		return nil, err
	}
	sw, err := crossbar.New(s.SwitchConfig())
	if err != nil {
		return nil, err
	}
	inj := fault.NewInjector(schedule)
	s.AttachFaults(sw, inj)
	t.N = s.cfg.Ports
	if t.Seed == 0 {
		t.Seed = s.cfg.Seed
	}
	gens, err := traffic.Build(t)
	if err != nil {
		return nil, err
	}
	cuts := schedule.Boundaries(warmup+1, warmup+measure)
	m, epochs, err := sw.RunEpochs(gens, warmup, measure, cuts)
	if err != nil {
		return nil, err
	}
	return &DegradationResult{
		Schedule:      schedule,
		Epochs:        epochs,
		Metrics:       m,
		Applied:       inj.Applied,
		Skipped:       inj.Skipped,
		Stalls:        sw.Stalls,
		ReceiversDown: sw.ReceiversDown(),
		GateFaults:    s.Crossbar.GateFaults(),
	}, nil
}
