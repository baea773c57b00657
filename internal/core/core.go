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

	"repro/internal/crossbar"
	"repro/internal/fault"
	"repro/internal/optics"
	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/traffic"
	"repro/internal/units"
)

// SchedulerKind selects the crossbar arbitration algorithm.
type SchedulerKind string

// Scheduler kinds.
const (
	SchedFLPPR     SchedulerKind = "flppr"
	SchedISLIP     SchedulerKind = "islip"
	SchedPipelined SchedulerKind = "pipelined-islip"
	SchedPIM       SchedulerKind = "pim"
	SchedLQF       SchedulerKind = "lqf"
	SchedIdealOQ   SchedulerKind = "ideal-oq"
)

// Config describes one OSMOSIS single-stage switch system.
type Config struct {
	// Ports is the switch port count (demonstrator: 64).
	Ports int
	// Receivers is 1 or 2 (dual-receiver broadcast-and-select).
	Receivers int
	// Scheduler picks the arbiter; SubSchedulers sets FLPPR's K or the
	// iteration/pipeline depth of the others (0 = log2 Ports).
	Scheduler     SchedulerKind
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
		Scheduler: SchedFLPPR,
		Format:    packet.OSMOSISFormat(),
		Optics:    optics.DemonstratorParams(),
		Seed:      1,
	}
}

// System is a buildable, runnable OSMOSIS switch.
type System struct {
	cfg Config
	// Crossbar is the optical data path (gates, budgets).
	Crossbar *optics.Crossbar
	// WorstMargin is the tightest optical power margin across all paths.
	WorstMargin units.DB
}

// NewSystem validates the configuration, builds the optical crossbar,
// and closes its power budget (a system whose budget does not close is
// rejected, mirroring §VI.A).
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
	xb, err := optics.NewCrossbar(cfg.Optics)
	if err != nil {
		return nil, err
	}
	margin, err := xb.VerifyAllPaths()
	if err != nil {
		return nil, fmt.Errorf("core: optical power budget: %w", err)
	}
	return &System{cfg: cfg, Crossbar: xb, WorstMargin: margin}, nil
}

// Config reports the (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }

// NewScheduler builds a fresh arbiter per the configuration.
func (s *System) NewScheduler() (sched.Scheduler, error) {
	return BuildScheduler(s.cfg.Scheduler, s.cfg.Ports, s.cfg.SubSchedulers, s.cfg.Seed)
}

// BuildScheduler constructs an arbiter by kind.
func BuildScheduler(kind SchedulerKind, ports, param int, seed uint64) (sched.Scheduler, error) {
	switch kind {
	case SchedFLPPR, "":
		return sched.NewFLPPR(ports, param), nil
	case SchedISLIP:
		return sched.NewISLIP(ports, param), nil
	case SchedPipelined:
		return sched.NewPipelinedISLIP(ports, param), nil
	case SchedPIM:
		return sched.NewPIM(ports, param, seed), nil
	case SchedLQF:
		return sched.NewLQF(ports), nil
	case SchedIdealOQ:
		return nil, nil // crossbar.Config.IdealOQ handles this
	default:
		return nil, fmt.Errorf("core: unknown scheduler kind %q", kind)
	}
}

// SwitchConfig derives the crossbar-engine configuration.
func (s *System) SwitchConfig() (crossbar.Config, error) {
	sc, err := s.NewScheduler()
	if err != nil {
		return crossbar.Config{}, err
	}
	return crossbar.Config{
		N:                s.cfg.Ports,
		Receivers:        s.cfg.Receivers,
		Scheduler:        sc,
		Format:           s.cfg.Format,
		IdealOQ:          s.cfg.Scheduler == SchedIdealOQ,
		ControlRTTCycles: s.cfg.ControlRTTCycles,
	}, nil
}

// RunWorkload simulates the switch under a named workload.
func (s *System) RunWorkload(t traffic.Config, warmup, measure uint64) (*crossbar.Metrics, error) {
	cfg, err := s.SwitchConfig()
	if err != nil {
		return nil, err
	}
	sw, err := crossbar.New(cfg)
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
