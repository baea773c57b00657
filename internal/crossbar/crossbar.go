// Package crossbar simulates a single-stage OSMOSIS switch: N ingress
// adapters with VOQs, a central arbiter, a bufferless (optical) crossbar
// with one transmitter per input and one or two receivers per output,
// and egress queues draining one cell per cycle onto the output lines.
//
// The engine is cell-slot synchronous, mirroring the demonstrator's
// 51.2 ns packet cycle: all inputs launch simultaneously while the SOA
// gates reconfigure during the guard time. Simulated time is
// slot * Format.CycleTime().
package crossbar

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/voq"
)

// Config describes one single-stage switch experiment.
type Config struct {
	// N is the port count (64 for the demonstrator).
	N int
	// Receivers per egress adapter: 1 (single) or 2 (OSMOSIS dual path).
	Receivers int
	// Scheduler arbitrates the crossbar. Ignored when IdealOQ is set.
	Scheduler sched.Scheduler
	// Format defines the cell timing; zero value selects OSMOSISFormat.
	Format packet.Format
	// IdealOQ bypasses the crossbar entirely: every arrival lands in its
	// egress queue in the same slot. This is the output-queued reference
	// curve traditional electronic fabrics achieve (§III, ref [16]).
	IdealOQ bool
	// ControlRTTCycles adds a fixed request/grant round-trip (in cycles)
	// between adapters and the scheduler, modelling the adapter-to-
	// scheduler cabling of Fig. 1. Grants act on the matching computed
	// that many cycles earlier.
	ControlRTTCycles int
	// OnMatch, when set, observes the matching executed each cycle —
	// the hook the optical data path uses to reconfigure its SOA gates
	// in lockstep with the arbiter.
	OnMatch func(slot uint64, m sched.Matching)
}

// Metrics aggregates a run's measurements.
type Metrics struct {
	// Offered and Delivered count cells during the measurement window.
	Offered, Delivered uint64
	// Dropped counts cells lost inside the switch. Egress queues are
	// unbounded, so it stays zero; reports print it to show losslessness.
	Dropped uint64
	// MeasureSlots is the length of the measurement window.
	MeasureSlots uint64
	// Latency is the end-to-end cell delay (arrival to line-out start).
	Latency stats.LatencySample
	// ControlLatency is the same for control-class cells only.
	ControlLatency stats.LatencySample
	// GrantLatency is the VOQ waiting time in slots (request to grant),
	// the Fig. 6 metric.
	GrantLatency stats.Running
	// MaxVOQDepth is the deepest any single ingress VOQ set got.
	MaxVOQDepth int
	// MaxEgressDepth is the deepest any egress queue got.
	MaxEgressDepth int
	// OrderViolations counts out-of-order deliveries (must be zero).
	OrderViolations uint64
	// ReceiverRejects counts granted cells refused at execution time
	// because a receiver fault landed after the grant was pipelined; the
	// cells stay queued and are re-arbitrated, so they are delayed, not
	// lost.
	ReceiverRejects uint64
	// SrcOffered and SrcDelivered break Offered/Delivered down by source
	// port, the inputs to the Jain fairness index (ServiceFairness).
	// Sized N by New; nil on a zero-value Metrics until the first Merge.
	SrcOffered, SrcDelivered []uint64
	// CycleTime scales slots to time.
	CycleTime units.Time
}

// Merge folds other into m (parallel-replication combination): counters
// and window lengths add, latency collectors merge sample-exactly, and
// depth high-water marks take the maximum. After merging R replication
// metrics in index order, m reports what one collector observing all R
// measurement windows back to back would report. other is unchanged.
func (m *Metrics) Merge(other *Metrics) {
	m.Offered += other.Offered
	m.Delivered += other.Delivered
	m.Dropped += other.Dropped
	m.MeasureSlots += other.MeasureSlots
	m.Latency.Merge(&other.Latency)
	m.ControlLatency.Merge(&other.ControlLatency)
	m.GrantLatency.Merge(&other.GrantLatency)
	if other.MaxVOQDepth > m.MaxVOQDepth {
		m.MaxVOQDepth = other.MaxVOQDepth
	}
	if other.MaxEgressDepth > m.MaxEgressDepth {
		m.MaxEgressDepth = other.MaxEgressDepth
	}
	m.OrderViolations += other.OrderViolations
	m.ReceiverRejects += other.ReceiverRejects
	if len(m.SrcOffered) < len(other.SrcOffered) {
		m.SrcOffered = append(m.SrcOffered, make([]uint64, len(other.SrcOffered)-len(m.SrcOffered))...)
	}
	for i, v := range other.SrcOffered {
		m.SrcOffered[i] += v
	}
	if len(m.SrcDelivered) < len(other.SrcDelivered) {
		m.SrcDelivered = append(m.SrcDelivered, make([]uint64, len(other.SrcDelivered)-len(m.SrcDelivered))...)
	}
	for i, v := range other.SrcDelivered {
		m.SrcDelivered[i] += v
	}
	if m.CycleTime == 0 {
		m.CycleTime = other.CycleTime
	}
}

// ThroughputPerPort reports delivered cells per port per slot during the
// measurement window — the y axis normalization of Fig. 7.
func (m *Metrics) ThroughputPerPort(n int) float64 {
	if m.MeasureSlots == 0 || n == 0 {
		return 0
	}
	return float64(m.Delivered) / float64(m.MeasureSlots) / float64(n)
}

// AcceptanceRatio reports delivered/offered — the "sustained throughput"
// requirement of Table 1 when the switch is saturated.
func (m *Metrics) AcceptanceRatio() float64 {
	if m.Offered == 0 {
		return 1
	}
	return float64(m.Delivered) / float64(m.Offered)
}

// ServiceFairness reports the Jain fairness index over the per-source
// service ratios delivered_i/offered_i, counting only sources that
// offered traffic during the window: 1 means every active source was
// served in exact proportion to its demand; the index floors at 1/k for
// k active sources when one source gets everything. Returns 1 when no
// source offered anything (an idle switch starves nobody).
func (m *Metrics) ServiceFairness() float64 {
	var sum, sumSq float64
	active := 0
	for i, off := range m.SrcOffered {
		if off == 0 {
			continue
		}
		active++
		x := float64(m.SrcDelivered[i]) / float64(off)
		sum += x
		sumSq += x * x
	}
	if active == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(active) * sumSq)
}

// MeanLatencySlots reports mean end-to-end delay in packet cycles.
func (m *Metrics) MeanLatencySlots() float64 {
	if m.Latency.N() == 0 {
		return 0
	}
	return float64(m.Latency.Mean()) / float64(m.CycleTime)
}

// Switch is a runnable single-stage switch instance.
type Switch struct {
	cfg Config

	// bank holds the VOQs and the demand bits the board serves to the
	// scheduler; egress[out] is the output adapter.
	bank   *voq.Bank
	egress []*voq.Egress
	alloc  *packet.Allocator
	order  *packet.OrderChecker

	// match is the reusable per-slot matching scratch the scheduler's
	// TickInto writes into.
	match sched.Matching
	// grantDelay is a fixed ring of ControlRTTCycles matchings delaying
	// grants by the control RTT; grantPos indexes the slot to swap with.
	grantDelay []sched.Matching
	grantPos   uint64

	// rxUp[out*Receivers+r] is the health of receiver r at egress out;
	// upCount[out] caches the per-egress up total the scheduler sizes
	// grants with.
	rxUp    []bool
	upCount []int
	rxUsed  []int // per-slot receiver usage scratch

	// stall freezes the arbiter for that many upcoming slots.
	stall uint64
	// Stalls counts slots the arbiter spent frozen.
	Stalls uint64

	// faults, when attached, is ticked at the top of every Step.
	faults *fault.Injector

	slot      uint64
	measuring bool
	metrics   Metrics
	epoch     epochState
}

// epochState accumulates the measurement counters since the last
// CutEpoch call, for per-fault-epoch degradation reporting.
type epochState struct {
	from                        uint64
	offered, delivered, rejects uint64
	lat                         stats.LatencySample
}

// Epoch is one segment of a degradation run: the measurement window
// between two fault transitions.
type Epoch struct {
	// FromSlot (inclusive) and ToSlot (exclusive) bound the segment.
	FromSlot, ToSlot uint64
	// Offered, Delivered, ReceiverRejects count cells in it.
	Offered, Delivered, ReceiverRejects uint64
	// MeanSlots and P99Slots are the end-to-end latency of cells
	// delivered in the segment, in packet cycles.
	MeanSlots, P99Slots float64
	// ReceiversDown is the failed-receiver count when the epoch closed.
	ReceiversDown int
	// ActiveFaults is the injector's active count when the epoch closed
	// (0 when no injector is attached).
	ActiveFaults int
}

// Throughput reports the epoch's delivered cells per port per slot.
func (e Epoch) Throughput(n int) float64 {
	slots := e.ToSlot - e.FromSlot
	if slots == 0 || n == 0 {
		return 0
	}
	return float64(e.Delivered) / float64(slots) / float64(n)
}

// board adapts the switch's VOQ state to the scheduler interface.
type board struct{ s *Switch }

// ReceiversAt reports the live receiver count at one egress, so the
// arbiter never over-grants a fault-degraded output.
func (b board) ReceiversAt(out int) int { return b.s.upCount[out] }

// Demand, Commit, Uncommit and the demand-bit reads delegate to the
// bank, which maintains the bits incrementally.
func (b board) Demand(in, out int) int              { return b.s.bank.Demand(in, out) }
func (b board) Commit(in, out int)                  { b.s.bank.Commit(in, out) }
func (b board) Uncommit(in, out int)                { b.s.bank.Uncommit(in, out) }
func (b board) DemandRowBits(in int, row []uint64)  { b.s.bank.DemandRowBits(in, row) }
func (b board) DemandColBits(out int, col []uint64) { b.s.bank.DemandColBits(out, col) }

// New builds a switch from cfg, applying defaults: 64 ports, dual
// receivers, FLPPR scheduler, OSMOSIS cell format.
func New(cfg Config) (*Switch, error) {
	if cfg.N <= 0 {
		cfg.N = 64
	}
	if cfg.Receivers <= 0 {
		cfg.Receivers = 2
	}
	if cfg.Format.CellBytes == 0 {
		cfg.Format = packet.OSMOSISFormat()
	}
	if cfg.Scheduler == nil && !cfg.IdealOQ {
		cfg.Scheduler = sched.NewFLPPR(cfg.N, 0)
	}
	if cfg.ControlRTTCycles < 0 {
		return nil, fmt.Errorf("crossbar: negative control RTT %d", cfg.ControlRTTCycles)
	}
	s := &Switch{cfg: cfg}
	s.bank = voq.NewBank(cfg.N)
	s.egress = make([]*voq.Egress, cfg.N)
	for i := range s.egress {
		s.egress[i] = new(voq.Egress)
	}
	s.alloc = packet.NewAllocator()
	s.order = packet.NewOrderCheckerFor(0, cfg.N)
	s.metrics.CycleTime = cfg.Format.CycleTime()
	s.metrics.SrcOffered = make([]uint64, cfg.N)
	s.metrics.SrcDelivered = make([]uint64, cfg.N)
	s.match = sched.NewMatching(cfg.N)
	s.grantDelay = make([]sched.Matching, cfg.ControlRTTCycles)
	for i := range s.grantDelay {
		s.grantDelay[i] = sched.NewMatching(cfg.N)
	}
	s.rxUp = make([]bool, cfg.N*cfg.Receivers)
	for i := range s.rxUp {
		s.rxUp[i] = true
	}
	s.upCount = make([]int, cfg.N)
	for i := range s.upCount {
		s.upCount[i] = cfg.Receivers
	}
	s.rxUsed = make([]int, cfg.N)
	return s, nil
}

// SetReceiver marks receiver rx at the given egress up or down.
// Transitions are idempotent; upCount tracks the live total the
// scheduler sees on its next Tick.
func (s *Switch) SetReceiver(egress, rx int, up bool) error {
	if egress < 0 || egress >= s.cfg.N || rx < 0 || rx >= s.cfg.Receivers {
		return fmt.Errorf("crossbar: receiver (%d,%d) out of range %dx%d", egress, rx, s.cfg.N, s.cfg.Receivers)
	}
	idx := egress*s.cfg.Receivers + rx
	if s.rxUp[idx] == up {
		return nil
	}
	s.rxUp[idx] = up
	if up {
		s.upCount[egress]++
	} else {
		s.upCount[egress]--
	}
	return nil
}

// ReceiversUp reports the live receiver count at one egress.
func (s *Switch) ReceiversUp(egress int) int { return s.upCount[egress] }

// ReceiversDown reports the total failed receivers across the switch.
func (s *Switch) ReceiversDown() int {
	down := 0
	for _, up := range s.rxUp {
		if !up {
			down++
		}
	}
	return down
}

// Stall freezes the arbiter for n upcoming slots: no Tick runs, the
// grant pipeline is fed empty matchings, and in-flight grants still
// execute — a transient scheduler-pipeline outage.
func (s *Switch) Stall(n uint64) { s.stall += n }

// AttachFaults registers the switch's fault hooks (receiver loss,
// scheduler stalls) on the injector and arranges for it to be ticked at
// the top of every Step. Other hooks on the same injector (optics
// gates, link BER, credits) are the other components' business.
func (s *Switch) AttachFaults(inj *fault.Injector) {
	s.faults = inj
	inj.OnReceiver(func(egress, rx int, up bool) {
		// Targets were validated at Compile time against these dims.
		//lint:ignore errcheck validated at schedule compile time; see fault.Dims
		_ = s.SetReceiver(egress, rx, up)
	})
	inj.OnStall(func(slots uint64) { s.Stall(slots) })
}

// CutEpoch closes the current degradation epoch at the present slot and
// starts the next one: it reports the measurement counters accumulated
// since the previous cut (or since measurement began) and resets the
// epoch collectors. Global metrics are unaffected.
func (s *Switch) CutEpoch() Epoch {
	e := Epoch{
		FromSlot:        s.epoch.from,
		ToSlot:          s.slot,
		Offered:         s.epoch.offered,
		Delivered:       s.epoch.delivered,
		ReceiverRejects: s.epoch.rejects,
		ReceiversDown:   s.ReceiversDown(),
	}
	if s.faults != nil {
		e.ActiveFaults = s.faults.Active()
	}
	if e.Delivered > 0 {
		cyc := float64(s.metrics.CycleTime)
		e.MeanSlots = float64(s.epoch.lat.Mean()) / cyc
		e.P99Slots = float64(s.epoch.lat.P99()) / cyc
	}
	s.epoch = epochState{from: s.slot}
	return e
}

// N reports the port count.
func (s *Switch) N() int { return s.cfg.N }

// now reports the simulated time at the current slot.
func (s *Switch) now() units.Time {
	return units.Time(s.slot) * s.metrics.CycleTime
}

// StartMeasurement begins the measurement window (call after warm-up).
// measureSlots is recorded for throughput normalization.
func (s *Switch) StartMeasurement(measureSlots uint64) {
	s.measuring = true
	s.metrics.MeasureSlots = measureSlots
	s.epoch = epochState{from: s.slot}
}

// Step advances the switch by one packet cycle. arrivals[i], when
// non-nil, is the cell arriving at input i this cycle. The switch takes
// ownership of the cells: delivered cells are returned to
// the switch's allocator for reuse, so callers must not retain them.
//
// The steady-state Step performs zero heap allocations (pinned by the
// AllocsPerRun regression test) outside the measurement collectors.
//
//osmosis:hotpath
//osmosis:shardsafe
func (s *Switch) Step(arrivals []*packet.Cell) {
	// 0. Fault transitions due this slot land before anything moves, so
	// the arbiter and data path see a consistent component state.
	if s.faults != nil {
		s.faults.Tick(s.slot)
	}
	now := s.now()
	// 1. Arrivals enter the VOQs (or the egress directly for ideal OQ).
	for in, c := range arrivals {
		if c == nil {
			continue
		}
		c.Injected = now
		if s.measuring {
			s.metrics.Offered++
			s.metrics.SrcOffered[in]++
			s.epoch.offered++
		}
		if s.cfg.IdealOQ {
			s.receive(c, c.Dst)
			continue
		}
		s.bank.Push(in, c, c.Dst)
	}
	// 2. Arbitrate and (after the control RTT) execute the matching.
	if !s.cfg.IdealOQ {
		bd := board{s}
		if s.stall > 0 {
			// Scheduler-pipeline stall: the arbiter is frozen, but the
			// grant pipeline keeps shifting so already-issued grants
			// execute on time.
			s.stall--
			s.Stalls++
			s.match.Reset()
		} else {
			s.cfg.Scheduler.TickInto(s.slot, bd, &s.match)
		}
		if d := uint64(len(s.grantDelay)); d > 0 {
			// A delayed matching's cells must be reserved until it
			// executes; pipelined schedulers reserve their own edges.
			if !s.cfg.Scheduler.SelfCommits() {
				for in, out := range s.match.Out {
					if out >= 0 {
						bd.Commit(in, out)
					}
				}
			}
			// Swap the fresh matching into the ring slot whose occupant —
			// computed ControlRTTCycles ago — executes this slot.
			idx := s.grantPos % d
			s.grantDelay[idx].Out, s.match.Out = s.match.Out, s.grantDelay[idx].Out
			s.grantPos++
		}
		if s.cfg.OnMatch != nil {
			s.cfg.OnMatch(s.slot, s.match)
		}
		for i := range s.rxUsed {
			s.rxUsed[i] = 0
		}
		for in, out := range s.match.Out {
			if out < 0 {
				continue
			}
			// Execution-time receiver capacity check: a fault can land
			// between grant and execution (the control RTT), so a granted
			// cell may find its egress short a receiver. Refused cells
			// stay queued and re-arbitrate; they are delayed, never lost.
			if s.rxUsed[out] >= s.upCount[out] {
				bd.Uncommit(in, out)
				if s.measuring {
					s.metrics.ReceiverRejects++
					s.epoch.rejects++
				}
				continue
			}
			c := s.bank.Pop(in, out)
			if c == nil {
				// Scheduler promised a cell that is not there — a bug.
				//lint:ignore panicfree,hotpath scheduler/VOQ bookkeeping invariant: a grant without a cell is a scheduler bug, not a runtime condition; the Sprintf only runs on that dead path
				panic(fmt.Sprintf("crossbar: granted empty VOQ in=%d out=%d slot=%d", in, out, s.slot))
			}
			s.rxUsed[out]++
			if s.measuring {
				wait := float64(now-c.Injected)/float64(s.metrics.CycleTime) + 1
				s.metrics.GrantLatency.Add(wait)
			}
			s.receive(c, out)
		}
	}
	// 3. Egress lines each transmit one cell.
	for _, e := range s.egress {
		c := e.Drain()
		if c == nil {
			continue
		}
		c.Delivered = now + s.metrics.CycleTime // line-out completes end of slot
		if !s.order.Deliver(c) && s.measuring {
			s.metrics.OrderViolations++
		}
		if s.measuring {
			s.metrics.Delivered++
			s.metrics.SrcDelivered[c.Src]++
			s.metrics.Latency.Add(c.Delivered - c.Created)
			s.epoch.delivered++
			s.epoch.lat.Add(c.Delivered - c.Created)
			if c.Class == packet.Control {
				s.metrics.ControlLatency.Add(c.Delivered - c.Created)
			}
		}
		// The cell has left the fabric; recycle it.
		s.alloc.Free(c)
	}
	// 4. Depth tracking.
	if d := s.bank.MaxDepth(); d > s.metrics.MaxVOQDepth {
		s.metrics.MaxVOQDepth = d
	}
	for _, e := range s.egress {
		if e.Queued() > s.metrics.MaxEgressDepth {
			s.metrics.MaxEgressDepth = e.Queued()
		}
	}
	s.slot++
}

// receive delivers a cell across the crossbar into an egress queue.
func (s *Switch) receive(c *packet.Cell, out int) {
	c.Hops++
	s.egress[out].Receive(c)
}

// RunResult couples a config and its metrics for reporting.
type RunResult struct {
	Load       float64
	Metrics    *Metrics
	Throughput float64
	MeanSlots  float64
}

// Run drives the switch with the given per-port generators for warmup
// plus measure slots and returns the metrics. The allocator stamps
// Created at the arrival slot.
func (s *Switch) Run(gens []traffic.Generator, warmup, measure uint64) (*Metrics, error) {
	m, _, err := s.RunEpochs(gens, warmup, measure, nil)
	return m, err
}

// RunEpochs is Run with degradation segmentation: the measurement
// window is additionally cut at each slot in cuts (ascending, each in
// (warmup, warmup+measure)), and the trailing segment is closed when
// the run ends — so a campaign with K in-window fault transitions
// yields K+1 epochs. Cuts outside the window are ignored; traffic and
// metrics are byte-identical to Run with the same inputs.
func (s *Switch) RunEpochs(gens []traffic.Generator, warmup, measure uint64, cuts []uint64) (*Metrics, []Epoch, error) {
	if len(gens) != s.cfg.N {
		return nil, nil, fmt.Errorf("crossbar: %d generators for %d ports", len(gens), s.cfg.N)
	}
	if err := packet.CheckTimeline(s.slot, warmup, measure); err != nil {
		return nil, nil, fmt.Errorf("crossbar: %w", err)
	}
	arrivals := make([]*packet.Cell, s.cfg.N)
	total := warmup + measure
	var epochs []Epoch
	ci := 0
	for t := uint64(0); t < total; t++ {
		if t == warmup {
			s.StartMeasurement(measure)
		}
		for ci < len(cuts) && cuts[ci] <= t {
			if cuts[ci] == t && t > warmup && t < total {
				epochs = append(epochs, s.CutEpoch())
			}
			ci++
		}
		now := s.now()
		for i, g := range gens {
			arrivals[i] = nil
			if a, ok := g.Next(s.slot); ok {
				cls := packet.Data
				if a.Class == traffic.ClassControl {
					cls = packet.Control
				}
				arrivals[i] = s.alloc.New(i, a.Dst, cls, now)
			}
		}
		s.Step(arrivals)
	}
	if measure > 0 {
		epochs = append(epochs, s.CutEpoch())
	}
	return &s.metrics, epochs, nil
}

// runPoint builds one fresh switch plus generators and runs a single
// (workload, seed) measurement. It is the unit of work both Sweep and
// Replicate fan out: everything it touches — switch, scheduler,
// allocator, generators, collectors — is created here, so concurrent
// points share no mutable state. tcfg.N is overridden with the switch
// port count.
func runPoint(base Config, mkSched func() sched.Scheduler, tcfg traffic.Config, warmup, measure uint64) (RunResult, error) {
	cfg := base
	if mkSched != nil {
		cfg.Scheduler = mkSched()
	}
	sw, err := New(cfg)
	if err != nil {
		return RunResult{}, err
	}
	tcfg.N = sw.N()
	gens, err := traffic.Build(tcfg)
	if err != nil {
		return RunResult{}, err
	}
	m, err := sw.Run(gens, warmup, measure)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Load:       tcfg.Load,
		Metrics:    m,
		Throughput: m.ThroughputPerPort(sw.N()),
		MeanSlots:  m.MeanLatencySlots(),
	}, nil
}

// Sweep runs a fresh switch per load point and reports delay vs
// throughput — the Fig. 7 measurement harness. Load points are
// statistically independent: point i draws its traffic from the derived
// seed sim.DeriveSeed(seed, i), never from a stream shared with another
// point. Points run concurrently on up to GOMAXPROCS workers; results
// are keyed by point index, so output order and content are identical
// to a serial sweep (see SweepN to pin the worker count).
func Sweep(base Config, mkSched func() sched.Scheduler, loads []float64, seed uint64, warmup, measure uint64) ([]RunResult, error) {
	return SweepN(base, mkSched, loads, seed, warmup, measure, 0)
}

// SweepN is Sweep with an explicit worker count (<= 0 selects
// GOMAXPROCS, 1 forces the serial path). A sweep that shares one
// pre-built Scheduler instance across multiple points (mkSched nil and
// base.Scheduler set) always runs serially: the scheduler's state
// legitimately carries from point to point there, and ticking it
// concurrently would race.
func SweepN(base Config, mkSched func() sched.Scheduler, loads []float64, seed uint64, warmup, measure uint64, workers int) ([]RunResult, error) {
	if mkSched == nil && base.Scheduler != nil && len(loads) > 1 {
		workers = 1
	}
	type point struct {
		r   RunResult
		err error
	}
	out := parallel.Map(len(loads), workers, func(i int) point {
		tcfg := traffic.Config{Kind: traffic.KindUniform, Load: loads[i], Seed: sim.DeriveSeed(seed, uint64(i))}
		r, err := runPoint(base, mkSched, tcfg, warmup, measure)
		return point{r, err}
	})
	results := make([]RunResult, 0, len(loads))
	for _, p := range out {
		if p.err != nil {
			return nil, p.err
		}
		results = append(results, p.r)
	}
	return results, nil
}

// Replicate fans one workload configuration across reps independent
// replications — replication r replaces tcfg.Seed with
// sim.DeriveSeed(tcfg.Seed, r) — and folds the per-replication metrics
// into one Metrics with Merge, in replication order. This is the
// batched-replication scheme of the paper's methodology: R shorter
// windows on R cores instead of one long window on one, with identical
// estimator math. mkSched must be non-nil when base.Scheduler is set
// and reps > 1, so every replication owns its scheduler.
func Replicate(base Config, mkSched func() sched.Scheduler, tcfg traffic.Config, reps int, warmup, measure uint64) (*Metrics, error) {
	return ReplicateN(base, mkSched, tcfg, reps, warmup, measure, 0)
}

// ReplicateN is Replicate with an explicit worker count (<= 0 selects
// GOMAXPROCS, 1 forces the serial path).
func ReplicateN(base Config, mkSched func() sched.Scheduler, tcfg traffic.Config, reps int, warmup, measure uint64, workers int) (*Metrics, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("crossbar: %d replications requested", reps)
	}
	if mkSched == nil && base.Scheduler != nil && reps > 1 {
		return nil, fmt.Errorf("crossbar: replications need a scheduler factory, not one shared %T instance", base.Scheduler)
	}
	type point struct {
		r   RunResult
		err error
	}
	baseSeed := tcfg.Seed
	out := parallel.Map(reps, workers, func(i int) point {
		rcfg := tcfg
		rcfg.Seed = sim.DeriveSeed(baseSeed, uint64(i))
		r, err := runPoint(base, mkSched, rcfg, warmup, measure)
		return point{r, err}
	})
	merged := &Metrics{}
	for _, p := range out {
		if p.err != nil {
			return nil, p.err
		}
		merged.Merge(p.r.Metrics)
	}
	return merged, nil
}
