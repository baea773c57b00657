// Package mgmt is the management system of §VI.A — "configuring and
// testing the system, monitoring demonstrator operation, and extracting
// performance values" — re-imagined as a library plus JSON export
// instead of the original GUI. It supervises a core.System: hardware
// inventory, built-in self-tests over every subsystem (optical budget,
// gate selectivity, receiver health, arbiter sanity, FEC loopback,
// timing budget), and
// performance-snapshot extraction from simulation runs.
package mgmt

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/fec"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/units"
)

// Status classifies a self-test outcome.
type Status string

// Self-test statuses.
const (
	OK     Status = "ok"
	Failed Status = "failed"
)

// Check is one self-test result.
type Check struct {
	Name   string `json:"name"`
	Status Status `json:"status"`
	Detail string `json:"detail"`
}

// Inventory describes the managed hardware.
type Inventory struct {
	Ports            int     `json:"ports"`
	Receivers        int     `json:"receivers_per_port"`
	SwitchingModules int     `json:"switching_modules"`
	SOACount         int     `json:"soa_count"`
	BroadcastFibers  int     `json:"broadcast_fibers"`
	WDMColors        int     `json:"wdm_colors"`
	LineRate         string  `json:"line_rate"`
	CellBytes        int     `json:"cell_bytes"`
	CycleTime        string  `json:"cycle_time"`
	Scheduler        string  `json:"scheduler"`
	WorstMarginDB    float64 `json:"worst_optical_margin_db"`
}

// Manager supervises one OSMOSIS system and a switch instance built from
// it, whose receivers the self-tests inspect.
type Manager struct {
	sys *core.System
	sw  *crossbar.Switch
}

// New wraps a built system and builds its switch.
func New(sys *core.System) (*Manager, error) {
	sw, err := crossbar.New(sys.SwitchConfig())
	if err != nil {
		return nil, err
	}
	return &Manager{sys: sys, sw: sw}, nil
}

// Inventory reports the managed configuration.
func (m *Manager) Inventory() Inventory {
	cfg := m.sys.Config()
	return Inventory{
		Ports:            cfg.Ports,
		Receivers:        cfg.Receivers,
		SwitchingModules: m.sys.Crossbar.Modules(),
		SOACount:         m.sys.Crossbar.SOACount(),
		BroadcastFibers:  cfg.Optics.Fibers(),
		WDMColors:        cfg.Optics.Colors,
		LineRate:         cfg.Format.LineRate.String(),
		CellBytes:        cfg.Format.CellBytes,
		CycleTime:        cfg.Format.CycleTime().String(),
		Scheduler:        cfg.Scheduler,
		WorstMarginDB:    float64(m.sys.WorstMargin),
	}
}

// SelfTest runs the built-in test battery and returns one Check per
// subsystem. All checks are non-destructive and deterministic for a
// given seed.
func (m *Manager) SelfTest(seed uint64) []Check {
	var checks []Check
	add := func(name string, err error, okDetail string) {
		c := Check{Name: name, Status: OK, Detail: okDetail}
		if err != nil {
			c.Status = Failed
			c.Detail = err.Error()
		}
		checks = append(checks, c)
	}

	// 1. Optical power budget across every path.
	worst, err := m.sys.Crossbar.VerifyAllPaths()
	add("optical-power-budget", err, fmt.Sprintf("worst margin %.2f dB", float64(worst)))

	// 2. Gate selectivity walk: every module commanded across every
	// broadcast fiber; the observed path must match the command and a
	// fully dark module must not leak.
	add("soa-gate-selectivity", m.gateWalk(seed), "all modules select exactly the commanded inputs")

	// 3. Receiver health: every egress keeps its full receiver set.
	add("receiver-health", m.receiverCheck(), "all egress receivers in service")

	// 4. Arbiter sanity: random demand, matching validity, conservation.
	add("arbiter-sanity", m.arbiterTest(seed), "matchings valid over random demand")

	// 5. FEC loopback: encode, corrupt one bit, decode, compare.
	add("fec-loopback", m.fecLoopback(seed), "single-bit corruption corrected end to end")

	// 6. Timing budget: guard decomposition fits the cell format.
	add("timing-budget", m.timingTest(), "SOA + CDR + jitter within guard")
	return checks
}

// AllOK reports whether every check passed.
func AllOK(checks []Check) bool {
	for _, c := range checks {
		if c.Status != OK {
			return false
		}
	}
	return true
}

// gateWalk is the §VI.A BIST loop over the switching modules: every
// module is commanded across every broadcast fiber (color sampled per
// trial) and the effective optical path is compared with the command.
// A stuck-off gate shows as a dark commanded path; a stuck-on gate
// shows as a leak once the module is commanded dark. Exhaustive over
// modules and fibers, so any single wedged fiber gate is caught.
func (m *Manager) gateWalk(seed uint64) error {
	rng := sim.NewRNG(seed)
	cfg := m.sys.Config()
	xb := m.sys.Crossbar
	colors := cfg.Optics.Colors
	for mod := 0; mod < xb.Modules(); mod++ {
		for f := 0; f < cfg.Optics.Fibers(); f++ {
			in := f*colors + rng.Intn(colors)
			if _, err := xb.Configure(mod, in); err != nil {
				return fmt.Errorf("module %d: %w", mod, err)
			}
			if got := xb.EffectiveInput(mod); got != in {
				if got < 0 {
					return fmt.Errorf("module %d commanded input %d but the path is dark (stuck-off gate)", mod, in)
				}
				return fmt.Errorf("module %d passes input %d, commanded %d", mod, got, in)
			}
		}
		if _, err := xb.Configure(mod, -1); err != nil {
			return err
		}
		if xb.ModuleLeaks(mod) {
			return fmt.Errorf("module %d leaks light with all gates commanded off (stuck-on gate)", mod)
		}
	}
	return nil
}

// receiverCheck verifies the switch still has its full
// receiver complement at every egress.
func (m *Manager) receiverCheck() error {
	cfg := m.sys.Config()
	if down := m.sw.ReceiversDown(); down > 0 {
		for e := 0; e < cfg.Ports; e++ {
			if up := m.sw.ReceiversUp(e); up < cfg.Receivers {
				return fmt.Errorf("%d of %d receivers out of service (first degraded egress %d: %d/%d up)",
					down, cfg.Ports*cfg.Receivers, e, up, cfg.Receivers)
			}
		}
	}
	return nil
}

// arbiterTest drives the configured scheduler against random demand.
func (m *Manager) arbiterTest(seed uint64) error {
	cfg := m.sys.Config()
	sc := m.sys.SwitchConfig()
	if sc.IdealOQ { // the ideal-OQ reference has no arbiter
		return nil
	}
	s := sc.NewScheduler()
	n := cfg.Ports
	b := sched.NewMatrixBoard(n, cfg.Receivers)
	rng := sim.NewRNG(seed)
	match := sched.NewMatching(n)
	for slot := uint64(0); slot < 64; slot++ {
		for in := 0; in < n; in++ {
			if rng.Bernoulli(0.5) {
				b.Add(in, rng.Intn(n), 1)
			}
		}
		s.TickInto(slot, b, &match)
		if err := match.Validate(n, cfg.Receivers); err != nil {
			return err
		}
		for in, out := range match.Out {
			if out >= 0 && b.Queued(in, out) <= 0 {
				return fmt.Errorf("grant for empty VOQ (%d,%d) at slot %d", in, out, slot)
			}
		}
		b.Execute(match)
	}
	return nil
}

// fecLoopback round-trips a block through the codec with one bit flip.
func (m *Manager) fecLoopback(seed uint64) error {
	rng := sim.NewRNG(seed)
	data := make([]byte, fec.DataSymbols)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	block, err := fec.Encode(data)
	if err != nil {
		return err
	}
	bit := rng.Intn(fec.BlockBits)
	block[bit/8] ^= 1 << (bit % 8)
	out, status, err := fec.Decode(block)
	if err != nil {
		return err
	}
	if status != fec.Corrected {
		return fmt.Errorf("loopback status %v, want corrected", status)
	}
	for i := range data {
		if out[i] != data[i] {
			return fmt.Errorf("loopback data mismatch at byte %d", i)
		}
	}
	return nil
}

// timingTest checks the §IV.C guard decomposition for the format.
func (m *Manager) timingTest() error {
	cdr := timing.DemonstratorCDR()
	tree := timing.DemonstratorClockTree()
	budget := timing.GuardBudget{
		SOASwitching:   5 * units.Nanosecond,
		CDRAcquisition: cdr.AcquisitionTime(),
		ArrivalJitter:  tree.AlignmentWindow(),
	}
	guard := m.sys.Config().Format.GuardTime
	if !budget.Fits(guard) {
		return fmt.Errorf("guard budget %v exceeds format guard %v", budget.Total(), guard)
	}
	return nil
}

// Snapshot is the "extracted performance values" export.
type Snapshot struct {
	Load               float64 `json:"offered_load"`
	Offered            uint64  `json:"offered_cells"`
	Delivered          uint64  `json:"delivered_cells"`
	ThroughputPerPort  float64 `json:"throughput_per_port"`
	MeanLatencyNs      float64 `json:"mean_latency_ns"`
	P99LatencyNs       float64 `json:"p99_latency_ns"`
	GrantLatencyCycles float64 `json:"grant_latency_cycles"`
	MaxVOQDepth        int     `json:"max_voq_depth"`
	OrderViolations    uint64  `json:"order_violations"`
	Drops              uint64  `json:"drops"`
}

// Capture runs the system at a load and extracts a snapshot.
func (m *Manager) Capture(load float64, warmup, measure uint64) (Snapshot, error) {
	mm, err := m.sys.RunUniform(load, warmup, measure)
	if err != nil {
		return Snapshot{}, err
	}
	return snapshotOf(load, m.sys.Config().Ports, mm), nil
}

func snapshotOf(load float64, ports int, m *crossbar.Metrics) Snapshot {
	return Snapshot{
		Load:               load,
		Offered:            m.Offered,
		Delivered:          m.Delivered,
		ThroughputPerPort:  m.ThroughputPerPort(ports),
		MeanLatencyNs:      m.Latency.Mean().Nanoseconds(),
		P99LatencyNs:       m.Latency.P99().Nanoseconds(),
		GrantLatencyCycles: m.GrantLatency.Mean(),
		MaxVOQDepth:        m.MaxVOQDepth,
		OrderViolations:    m.OrderViolations,
		Drops:              m.Dropped,
	}
}

// Report bundles everything the management console shows.
type Report struct {
	Inventory Inventory  `json:"inventory"`
	SelfTest  []Check    `json:"self_test"`
	Snapshots []Snapshot `json:"snapshots"`
}

// WriteJSON exports a report.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// FullReport runs the complete console cycle: inventory, self-test, and
// snapshots at the given loads.
func (m *Manager) FullReport(seed uint64, loads []float64, warmup, measure uint64) (Report, error) {
	rep := Report{
		Inventory: m.Inventory(),
		SelfTest:  m.SelfTest(seed),
	}
	for _, load := range loads {
		s, err := m.Capture(load, warmup, measure)
		if err != nil {
			return rep, err
		}
		rep.Snapshots = append(rep.Snapshots, s)
	}
	return rep, nil
}
