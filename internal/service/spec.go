// Package service implements osmosisd: the fabric simulator as a
// long-running HTTP/JSON daemon. Clients submit simulation jobs (a
// fabric shape plus a traffic specification, including inline
// osmosis-trace v1 uploads); the daemon batches shape-compatible jobs
// onto the internal/parallel pool, streams incremental progress, and
// exports Prometheus-style text metrics.
//
// The determinism contract is the whole point: a job's result is a
// function of its spec alone. Jobs run on fabric.Session engines, so
// every job can be checkpointed at any pause point into an
// osmosis-ckpt v1 snapshot (wrapped in an osmosisd-job section carrying
// the spec), killed, and restored — on this daemon or another — to
// finish with byte-identical metrics (fabric.Metrics.Fingerprint) to
// its uninterrupted twin. Wall-clock concerns (batching windows,
// scrape timing, HTTP scheduling) live out here and never touch engine
// state, which is why this package is outside the determinism lint
// scope while everything it drives is inside.
package service

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// JobSpec is the wire format of one simulation job. The zero values of
// optional fields select the demonstrator defaults, so a minimal spec
// is {"fabric":{"hosts":64,"radix":8},"traffic":{"kind":"uniform","load":0.5},
// "measure_slots":1000}.
type JobSpec struct {
	// Name is an optional client label, echoed in status reports.
	Name    string      `json:"name,omitempty"`
	Fabric  FabricSpec  `json:"fabric"`
	Traffic TrafficSpec `json:"traffic"`
	// WarmupSlots run before measurement starts.
	WarmupSlots uint64 `json:"warmup_slots"`
	// MeasureSlots is the measured interval; must be > 0.
	MeasureSlots uint64 `json:"measure_slots"`
	// DrainSlots bounds the post-measurement drain-to-idle (the fabric
	// is lossless, so in-flight cells are delivered, not discarded).
	// 0 selects a generous default; the job fails if the fabric is not
	// idle within the bound.
	DrainSlots uint64 `json:"drain_slots,omitempty"`
}

// FabricSpec names a fabric shape: an XGFT of switches plus the
// arbitration and flow-control options of fabric.Config.
type FabricSpec struct {
	Hosts int `json:"hosts"`
	Radix int `json:"radix"`
	// Levels forces the fat-tree depth; 0 selects the minimal tree.
	Levels int `json:"levels,omitempty"`
	// Receivers per output; 0 selects the dual-receiver demonstrator.
	Receivers int `json:"receivers,omitempty"`
	// Scheduler is flppr | islip | pipelined-islip | pim | lqf;
	// "" selects flppr.
	Scheduler string `json:"scheduler,omitempty"`
	// SchedParam is the scheduler's iteration/sub-scheduler/depth
	// parameter; 0 selects each scheduler's default.
	SchedParam     int  `json:"sched_param,omitempty"`
	LinkDelaySlots int  `json:"link_delay_slots,omitempty"`
	InputCapacity  int  `json:"input_capacity,omitempty"`
	EgressBuffered bool `json:"egress_buffered,omitempty"`
	// Shards partitions the engine spatially; results are byte-
	// identical at any value, so this only trades wall-clock time.
	Shards int `json:"shards,omitempty"`
}

// TrafficSpec mirrors traffic.Config with a string kind and an optional
// inline osmosis-trace v1 upload.
type TrafficSpec struct {
	Kind         string  `json:"kind"`
	Load         float64 `json:"load,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
	ControlShare float64 `json:"control_share,omitempty"`
	MeanBurst    float64 `json:"mean_burst,omitempty"`
	HotFraction  float64 `json:"hot_fraction,omitempty"`
	HotPort      int     `json:"hot_port,omitempty"`
	Fanin        int     `json:"fanin,omitempty"`
	EpochSlots   uint64  `json:"epoch_slots,omitempty"`
	PhaseSlots   uint64  `json:"phase_slots,omitempty"`
	ParetoAlpha  float64 `json:"pareto_alpha,omitempty"`
	// Trace is the full text of an osmosis-trace v1 recording; required
	// for kind "trace", rejected otherwise.
	Trace string `json:"trace,omitempty"`
}

// schedulerNames lists the checkpointable arbiters a job may request.
var schedulerNames = []string{"flppr", "islip", "lqf", "pim", "pipelined-islip"}

// newSchedulerFactory resolves a scheduler name to a per-switch
// constructor. Every returned scheduler implements sched.StateCodec, a
// requirement for checkpointing; seed feeds PIM's arbitration RNG so a
// rebuilt engine starts from the same stream the checkpoint will then
// overwrite.
func newSchedulerFactory(name string, radix, param int, seed uint64) (func() sched.Scheduler, error) {
	switch name {
	case "", "flppr":
		return func() sched.Scheduler { return sched.NewFLPPR(radix, param) }, nil
	case "islip":
		return func() sched.Scheduler { return sched.NewISLIP(radix, param) }, nil
	case "lqf":
		return func() sched.Scheduler { return sched.NewLQF(radix) }, nil
	case "pim":
		return func() sched.Scheduler { return sched.NewPIM(radix, param, seed) }, nil
	case "pipelined-islip":
		return func() sched.Scheduler { return sched.NewPipelinedISLIP(radix, param) }, nil
	}
	return nil, fmt.Errorf("service: unknown scheduler %q (want %s)", name, strings.Join(schedulerNames, " | "))
}

// trafficConfig translates the wire spec into a traffic.Config,
// parsing any inline trace upload.
func (t *TrafficSpec) trafficConfig(hosts int) (traffic.Config, error) {
	kind, err := traffic.ParseKind(t.Kind)
	if err != nil {
		return traffic.Config{}, err
	}
	cfg := traffic.Config{
		Kind: kind, N: hosts,
		Load: t.Load, Seed: t.Seed,
		ControlShare: t.ControlShare, MeanBurst: t.MeanBurst,
		HotFraction: t.HotFraction, HotPort: t.HotPort,
		Fanin: t.Fanin, EpochSlots: t.EpochSlots, PhaseSlots: t.PhaseSlots,
		ParetoAlpha: t.ParetoAlpha,
	}
	if kind == traffic.KindTrace {
		if t.Trace == "" {
			return traffic.Config{}, fmt.Errorf("service: traffic kind %q needs an inline trace upload", t.Kind)
		}
		tr, err := traffic.ReadTrace(strings.NewReader(t.Trace))
		if err != nil {
			return traffic.Config{}, err
		}
		if tr.N != hosts {
			return traffic.Config{}, fmt.Errorf("service: trace has %d ports, fabric has %d hosts", tr.N, hosts)
		}
		cfg.Trace = tr
	} else if t.Trace != "" {
		return traffic.Config{}, fmt.Errorf("service: traffic kind %q does not take a trace upload", t.Kind)
	}
	return cfg, nil
}

// validate rejects specs that cannot possibly build an engine, so
// submission errors surface at the HTTP boundary instead of inside a
// batch. Engine construction re-validates; this is the fast first line.
func (s *JobSpec) validate() error {
	if s.MeasureSlots == 0 {
		return fmt.Errorf("service: measure_slots must be > 0")
	}
	if s.Fabric.Hosts <= 0 || s.Fabric.Radix <= 1 {
		return fmt.Errorf("service: fabric needs hosts > 0 and radix > 1 (got %d, %d)",
			s.Fabric.Hosts, s.Fabric.Radix)
	}
	if err := fabric.CheckLinkDelay(s.Fabric.LinkDelaySlots); err != nil {
		return err
	}
	if _, err := newSchedulerFactory(s.Fabric.Scheduler, s.Fabric.Radix, s.Fabric.SchedParam, s.Traffic.Seed); err != nil {
		return err
	}
	if _, err := s.Traffic.trafficConfig(s.Fabric.Hosts); err != nil {
		return err
	}
	return nil
}

// buildEngine constructs the fabric and per-host generators the spec
// names. Both are freshly built per call, so a restore can rebuild the
// exact engine a checkpoint was taken from.
func (s *JobSpec) buildEngine() (*fabric.Fabric, []traffic.Generator, error) {
	x, err := fabric.NewXGFT(s.Fabric.Hosts, s.Fabric.Radix, s.Fabric.Levels)
	if err != nil {
		return nil, nil, err
	}
	newSched, err := newSchedulerFactory(s.Fabric.Scheduler, s.Fabric.Radix, s.Fabric.SchedParam, s.Traffic.Seed)
	if err != nil {
		return nil, nil, err
	}
	receivers := s.Fabric.Receivers
	if receivers == 0 {
		receivers = 2
	}
	f, err := fabric.New(fabric.Config{
		Network:        x,
		Receivers:      receivers,
		NewScheduler:   newSched,
		LinkDelaySlots: s.Fabric.LinkDelaySlots,
		InputCapacity:  s.Fabric.InputCapacity,
		EgressBuffered: s.Fabric.EgressBuffered,
		Shards:         s.Fabric.Shards,
	})
	if err != nil {
		return nil, nil, err
	}
	tcfg, err := s.Traffic.trafficConfig(s.Fabric.Hosts)
	if err != nil {
		return nil, nil, err
	}
	gens, err := traffic.Build(tcfg)
	if err != nil {
		return nil, nil, err
	}
	return f, gens, nil
}

// totalSlots is the job's warm-up + measurement timeline length.
func (s *JobSpec) totalSlots() uint64 { return s.WarmupSlots + s.MeasureSlots }

// drainBound is the drain budget with its default applied.
func (s *JobSpec) drainBound() uint64 {
	if s.DrainSlots > 0 {
		return s.DrainSlots
	}
	return 1 << 20
}

// batchKey groups jobs that exercise the same engine shape: the batcher
// coalesces equal-key jobs into one parallel.Run so a sweep campaign's
// points tick together. Traffic parameters and seeds are deliberately
// not part of the key — a sweep varies exactly those.
func (s *JobSpec) batchKey() string {
	fs := s.Fabric
	recv := fs.Receivers
	if recv == 0 {
		recv = 2
	}
	schedName := fs.Scheduler
	if schedName == "" {
		schedName = "flppr"
	}
	return fmt.Sprintf("%dx%d-l%d-r%d-%s%d-d%d-c%d-e%t-s%d",
		fs.Hosts, fs.Radix, fs.Levels, recv, schedName, fs.SchedParam,
		fs.LinkDelaySlots, fs.InputCapacity, fs.EgressBuffered, fs.Shards)
}

// canonicalJSON renders the spec in Go's deterministic field order, the
// form embedded in job checkpoints.
func (s *JobSpec) canonicalJSON() ([]byte, error) {
	return json.Marshal(s)
}
