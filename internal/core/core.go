// Package core assembles the OSMOSIS hybrid opto-electronic interconnect
// system from its substrates: the broadcast-and-select optical crossbar
// (internal/optics), electronic VOQ adapters and central FLPPR arbiter
// (internal/crossbar, internal/sched), the FEC and retransmission layers
// (internal/fec, internal/link), and multistage fat-tree composition
// (internal/fabric). It also encodes the paper's analytic models: the
// Table-1 requirement checklist, the Fig.-1 single-stage latency bound
// that forces multistage topologies, and the §VII scaling envelope.
package core

import (
	"fmt"
	"strings"

	"repro/internal/crossbar"
	"repro/internal/fault"
	"repro/internal/optics"
	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/traffic"
	"repro/internal/units"
)

// idealOQ names the output-queued reference (crossbar.Config.IdealOQ),
// the one Scheduler value that is not a sched.Factory name.
const idealOQ = "ideal-oq"

// Config describes one OSMOSIS single-stage switch system.
type Config struct {
	// Ports is the switch port count (demonstrator: 64).
	Ports int
	// Receivers is 1 or 2 (dual-receiver broadcast-and-select).
	Receivers int
	// Scheduler names the arbiter: one of sched.Names ("" = flppr) or
	// "ideal-oq". SubSchedulers sets FLPPR's K or the iteration/pipeline
	// depth of the others (0 = log2 Ports).
	Scheduler     string
	SubSchedulers int
	// Format is the cell format (zero value = 256 B / 40 Gb/s OSMOSIS).
	Format packet.Format
	// Optics parameterizes the photonic path (zero value = demonstrator).
	Optics optics.Params
	// ControlRTTCycles models adapter-to-scheduler distance.
	ControlRTTCycles int
	// Seed drives all stochastic inputs.
	Seed uint64
	// Faults is the fault campaign RunDegradation injects; the zero value
	// runs healthy. Random components draw from the fault stream derived
	// from Seed, so a faulted run never perturbs the traffic processes.
	Faults fault.Spec
}

// DemonstratorConfig returns the §V hardware configuration: 64 ports at
// 40 Gb/s, 256-byte cells on a 51.2 ns cycle, dual receivers, FLPPR.
func DemonstratorConfig() Config {
	return Config{
		Ports:     64,
		Receivers: 2,
		Scheduler: "flppr",
		Format:    packet.OSMOSISFormat(),
		Optics:    optics.DemonstratorParams(),
		Seed:      1,
	}
}

// System is a buildable, runnable OSMOSIS switch.
type System struct {
	cfg Config
	// newSched builds the configured arbiter; nil for ideal-oq.
	newSched func() sched.Scheduler
	// Crossbar is the optical data path (gates, budgets).
	Crossbar *optics.Crossbar
	// WorstMargin is the tightest optical power margin across all paths.
	WorstMargin units.DB
}

// NewSystem validates the configuration, builds the optical crossbar,
// and closes its power budget (a system whose budget does not close is
// rejected, mirroring §VI.A). An unknown Scheduler name is rejected
// here, so the derived switch configurations cannot fail.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Ports <= 0 {
		cfg.Ports = 64
	}
	if cfg.Receivers <= 0 {
		cfg.Receivers = 2
	}
	if cfg.Format.CellBytes == 0 {
		cfg.Format = packet.OSMOSISFormat()
	}
	if cfg.Optics.Ports == 0 {
		cfg.Optics = optics.DemonstratorParams()
	}
	// The optical fabric must mirror the switch dimensions; callers
	// often override Ports/Receivers after taking DemonstratorConfig.
	if cfg.Optics.Ports != cfg.Ports || cfg.Optics.ReceiversPerPort != cfg.Receivers {
		cfg.Optics.Ports = cfg.Ports
		cfg.Optics.ReceiversPerPort = cfg.Receivers
		for cfg.Optics.Colors > 1 && cfg.Ports%cfg.Optics.Colors != 0 {
			cfg.Optics.Colors /= 2
		}
		if cfg.Ports < cfg.Optics.Colors {
			cfg.Optics.Colors = cfg.Ports
		}
	}
	var mk func() sched.Scheduler
	if cfg.Scheduler != idealOQ {
		var err error
		if mk, err = sched.Factory(cfg.Scheduler, cfg.Ports, cfg.SubSchedulers, cfg.Seed); err != nil {
			return nil, fmt.Errorf("core: unknown scheduler %q (want %s | %s)",
				cfg.Scheduler, strings.Join(sched.Names, " | "), idealOQ)
		}
	}
	xb, err := optics.NewCrossbar(cfg.Optics)
	if err != nil {
		return nil, err
	}
	margin, err := xb.VerifyAllPaths()
	if err != nil {
		return nil, fmt.Errorf("core: optical power budget: %w", err)
	}
	return &System{cfg: cfg, newSched: mk, Crossbar: xb, WorstMargin: margin}, nil
}

// Config reports the (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }

// SwitchConfig derives the crossbar-engine configuration.
func (s *System) SwitchConfig() crossbar.Config {
	return crossbar.Config{
		N:                s.cfg.Ports,
		Receivers:        s.cfg.Receivers,
		NewScheduler:     s.newSched,
		Format:           s.cfg.Format,
		IdealOQ:          s.newSched == nil,
		ControlRTTCycles: s.cfg.ControlRTTCycles,
	}
}

// RunWorkload simulates the switch under a named workload.
func (s *System) RunWorkload(t traffic.Config, warmup, measure uint64) (*crossbar.Metrics, error) {
	sw, err := crossbar.New(s.SwitchConfig())
	if err != nil {
		return nil, err
	}
	t.N = s.cfg.Ports
	if t.Seed == 0 {
		t.Seed = s.cfg.Seed
	}
	gens, err := traffic.Build(t)
	if err != nil {
		return nil, err
	}
	return sw.Run(gens, warmup, measure)
}

// RunUniform simulates uniform Bernoulli traffic at the given load.
func (s *System) RunUniform(load float64, warmup, measure uint64) (*crossbar.Metrics, error) {
	return s.RunWorkload(traffic.Config{Kind: traffic.KindUniform, Load: load}, warmup, measure)
}
