package core

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/sched"
	"repro/internal/traffic"
	"repro/internal/units"
)

// Hardware-in-the-loop integration: the cycle-level switch engine drives
// the structural optical crossbar, reconfiguring one SOA fiber/color
// gate pair per granted receiver every packet cycle — exactly what the
// demonstrator's scheduler-to-SOA control links do (§V). It verifies
// that every granted path is optically selected and that the gate
// switching time fits inside the cell format's guard budget.

// OpticsReport summarizes an optics-coupled run.
type OpticsReport struct {
	// Slots simulated with the optical path in the loop.
	Slots uint64
	// SwitchEvents is the total SOA module reconfiguration count.
	SwitchEvents uint64
	// ReconfigsPerSlot is the average module reconfiguration rate.
	ReconfigsPerSlot float64
	// MaxGuard is the longest SOA settling time any cycle demanded.
	MaxGuard units.Time
	// GuardBudget is the format's per-cell guard allowance.
	GuardBudget units.Time
	// GuardOK reports MaxGuard <= GuardBudget: the optical switch can
	// keep up with per-cell reconfiguration.
	GuardOK bool
	// PathErrors counts grants whose module did not end up selecting
	// the granted input (must be zero).
	PathErrors uint64
}

// RunWithOptics runs uniform traffic with the optical crossbar coupled
// to the arbiter. Every executed matching reconfigures the egress's
// switching modules: granted inputs are assigned to the output's
// receiver modules in order; unused receiver modules go dark.
func (s *System) RunWithOptics(load float64, warmup, measure uint64) (*crossbar.Metrics, *OpticsReport, error) {
	swCfg := s.SwitchConfig()
	if swCfg.IdealOQ {
		return nil, nil, fmt.Errorf("core: the ideal-OQ reference has no optical path")
	}
	rep := &OpticsReport{GuardBudget: s.cfg.Format.GuardTime}
	r := s.cfg.Receivers
	xb := s.Crossbar
	// perOut[out] collects the granted inputs for one output per slot.
	perOut := make([][]int, s.cfg.Ports)
	startEvents := xb.SwitchEvents()
	swCfg.OnMatch = func(slot uint64, m sched.Matching) {
		rep.Slots++
		for out := range perOut {
			perOut[out] = perOut[out][:0]
		}
		for in, out := range m.Out {
			if out >= 0 {
				perOut[out] = append(perOut[out], in)
			}
		}
		for out, ins := range perOut {
			for rx := 0; rx < r; rx++ {
				module := xb.ModuleOf(out, rx)
				want := -1
				if rx < len(ins) {
					want = ins[rx]
				}
				guard, err := xb.Configure(module, want)
				if err != nil {
					rep.PathErrors++
					continue
				}
				if guard > rep.MaxGuard {
					rep.MaxGuard = guard
				}
				if want >= 0 && xb.SelectedInput(module) != want {
					rep.PathErrors++
				}
			}
		}
	}
	sw, err := crossbar.New(swCfg)
	if err != nil {
		return nil, nil, err
	}
	gens, err := traffic.Build(traffic.Config{
		Kind: traffic.KindUniform, N: s.cfg.Ports, Load: load, Seed: s.cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	m, err := sw.Run(gens, warmup, measure)
	if err != nil {
		return nil, nil, err
	}
	rep.SwitchEvents = xb.SwitchEvents() - startEvents
	if rep.Slots > 0 {
		rep.ReconfigsPerSlot = float64(rep.SwitchEvents) / float64(rep.Slots)
	}
	rep.GuardOK = rep.MaxGuard <= rep.GuardBudget
	return m, rep, nil
}
