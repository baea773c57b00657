// Package fabric simulates multistage OSMOSIS fabrics: folded fat trees
// (Figs. 2-4) of single-stage bufferless crossbars with electronic input
// buffers per stage (buffer placement option 3), per-stage independent
// central schedulers, credit-based lossless flow control with
// deterministic loop RTTs, and strict per-flow in-order delivery.
//
// The topology is an XGFT: NewXGFT builds the smallest tree covering a
// host count — the two-level (three-stage) fat tree the demonstrator
// targets for 2048 ports — or one of a fixed depth for the §VI.C
// stage-count study.
package fabric

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/fc"
	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/voq"
)

// Config describes a multistage fabric experiment.
type Config struct {
	// Network is the wiring: the host count, the switch radix and the
	// level count, as NewXGFT builds it.
	Network XGFT
	// Receivers per output (dual receiver = 2).
	Receivers int
	// NewScheduler builds one per-switch arbiter instance.
	NewScheduler func() sched.Scheduler
	// LinkDelaySlots is the one-way inter-switch cable delay in packet
	// cycles (machine-room fibers; 51.2 ns cycles and 5 ns/m make a
	// 50 m cable ~5 slots).
	LinkDelaySlots int
	// InputCapacity bounds each inter-switch input buffer in cells;
	// zero selects the deterministic-RTT sizing fc.BufferFor.
	InputCapacity int
	// EgressBuffered selects buffer-placement option 1 (in- and output
	// buffers per stage) instead of the paper's option 3 (input only).
	EgressBuffered bool
	// Shards partitions the switch nodes into contiguous groups that
	// tick concurrently: Run and Session synchronize them at lookahead
	// window barriers, Step every slot. 0 or 1 runs one shard on the
	// calling goroutine. Output is byte-identical at any shard count —
	// the partition changes wall-clock time, never results. Values
	// above the switch count are clamped.
	Shards int
}

// Metrics collects fabric-level measurements.
type Metrics struct {
	Offered, Delivered uint64
	MeasureSlots       uint64
	// LatencySlots is end-to-end delay in packet cycles (host adapter
	// arrival to host line-out completion).
	LatencySlots stats.LatencySample
	// ControlLatencySlots covers control-class cells.
	ControlLatencySlots stats.LatencySample
	// HopHistogram[h] counts cells that crossed h switches.
	HopHistogram map[int]uint64
	// OrderViolations must stay zero (Table 1).
	OrderViolations uint64
	// Dropped must stay zero: the fabric is lossless by flow control.
	Dropped uint64
	// FCBlocked counts grant executions refused by exhausted credits.
	FCBlocked uint64
	// MaxVOQDepth is the deepest switch VOQ set seen.
	MaxVOQDepth int
	// MaxInterInputDepth is the deepest bounded inter-switch input
	// buffer seen (must stay <= InputCapacity: lossless proof).
	MaxInterInputDepth int
	// CycleTime scales slots to wall time.
	CycleTime units.Time
}

// ThroughputPerHost reports delivered cells per host per slot.
func (m *Metrics) ThroughputPerHost(hosts int) float64 {
	if m.MeasureSlots == 0 || hosts == 0 {
		return 0
	}
	return float64(m.Delivered) / float64(m.MeasureSlots) / float64(hosts)
}

// MeanLatency reports the mean end-to-end latency in wall time.
func (m *Metrics) MeanLatency() units.Time {
	if m.LatencySlots.N() == 0 {
		return 0
	}
	return units.Time(float64(m.LatencySlots.Mean()) * float64(m.CycleTime))
}

// delivery is one cell in flight on an inter-switch link.
type delivery struct {
	cell *packet.Cell
	node int // destination node index in Fabric.nodes
	port int
}

// creditReturn is an FC credit travelling back upstream.
type creditReturn struct {
	node int // upstream node index
	port int // upstream output port
}

// Fabric is a runnable multistage fabric instance.
//
// The engine is spatially partitioned: every switch node belongs to
// exactly one shard (a contiguous run of XGFT.NodeIDs()), and each shard
// owns its nodes' VOQ, credit, and egress state plus private
// inflight/credit-return rings. Cells and credits crossing a shard
// boundary travel through per-(source, destination)-shard mailboxes
// that are exchanged at deterministic barriers. Each shard checks the
// order of, and retires, the cells its hosts deliver; the coordinator
// folds the shards' delivery records into the metrics in global (slot,
// host) order. The result is byte-identical at any shard count.
type Fabric struct {
	cfg Config

	nodes []*node
	// nodeShard[i] is the index of the shard owning node i.
	nodeShard []int
	// hostNode[h]/hostPort[h] locate host h's leaf attachment;
	// hostShard[h] is the shard owning that leaf.
	hostNode  []int
	hostPort  []int
	hostShard []int

	shards []*shard
	// ringLen sizes every shard's inflight and credit rings: an event
	// emitted in a lookahead window can land up to
	// 2*LinkDelaySlots + 1 slots past the window start.
	ringLen int

	// hostEgress[h] is the egress adapter of host h.
	hostEgress []*voq.Egress

	slot      uint64
	measuring bool
	// measureFrom extends the measuring flag with a slot threshold so a
	// run can cross the warm-up boundary mid-window.
	measureSet    bool
	measureFrom   uint64
	injectOffered uint64
	metrics       Metrics

	// inj is the running timeline's injection plan, held inline so a Run
	// call allocates nothing.
	inj injectPlan
}

// CheckLinkDelay reports whether a one-way link delay can build a
// fabric: it must be non-negative, and small enough that the slot rings
// (2*delay+2 entries) and the credit window sized from the loop RTT
// (2*delay+4 cells) fit in an int.
func CheckLinkDelay(slots int) error {
	if slots < 0 {
		return fmt.Errorf("fabric: negative link delay %d", slots)
	}
	if slots > (math.MaxInt-4)/2 {
		return fmt.Errorf("fabric: link delay %d slots overflows the slot rings", slots)
	}
	return nil
}

// New builds a fabric, applying defaults.
func New(cfg Config) (*Fabric, error) {
	x := cfg.Network
	if _, err := NewXGFT(x.Hosts, x.Radix, x.Levels); err != nil || x.Levels < 1 {
		return nil, fmt.Errorf("fabric: network %+v is not a tree NewXGFT builds (%v)", x, err)
	}
	if cfg.Receivers <= 0 {
		cfg.Receivers = 2
	}
	if cfg.NewScheduler == nil {
		radix := x.Radix
		cfg.NewScheduler = func() sched.Scheduler { return sched.NewFLPPR(radix, 0) }
	}
	if err := CheckLinkDelay(cfg.LinkDelaySlots); err != nil {
		return nil, err
	}
	if cfg.InputCapacity == 0 {
		// Deterministic FC loop sizing: credits must cover the full
		// consume-to-return latency (cell flight + pop + credit flight).
		cfg.InputCapacity = fc.BufferFor(fc.LoopRTT(cfg.LinkDelaySlots, 1), 2)
	}

	f := &Fabric{cfg: cfg}
	f.metrics.CycleTime = packet.OSMOSISFormat().CycleTime()
	f.metrics.HopHistogram = make(map[int]uint64)

	nodeIdx := make(map[NodeID]int)
	for _, id := range x.NodeIDs() {
		n, err := newNode(id, x, cfg.NewScheduler, cfg.Receivers, cfg.InputCapacity, cfg.EgressBuffered)
		if err != nil {
			return nil, err
		}
		nodeIdx[id] = len(f.nodes)
		f.nodes = append(f.nodes, n)
	}

	f.hostEgress = make([]*voq.Egress, x.Hosts)
	for h := range f.hostEgress {
		f.hostEgress[h] = new(voq.Egress)
	}
	f.hostNode = make([]int, x.Hosts)
	f.hostPort = make([]int, x.Hosts)
	for h := 0; h < x.Hosts; h++ {
		leaf, port := x.HostLeaf(h)
		f.hostNode[h] = nodeIdx[leaf]
		f.hostPort[h] = port
	}

	for _, n := range f.nodes {
		n.peerIdx = make([]int, len(n.ports))
		for p, pi := range n.ports {
			n.peerIdx[p] = -1
			if pi.Kind != UpPort && pi.Kind != DownPort {
				continue
			}
			n.peerIdx[p] = nodeIdx[pi.Peer]
		}
	}

	f.ringLen = 2*cfg.LinkDelaySlots + 2
	f.partition(cfg.Shards)
	return f, nil
}

// partition splits the switch nodes into s contiguous shards and builds
// the per-shard rings and mailboxes.
func (f *Fabric) partition(s int) {
	if s < 1 {
		s = 1
	}
	if s > len(f.nodes) {
		s = len(f.nodes)
	}
	f.cfg.Shards = s
	f.nodeShard = make([]int, len(f.nodes))
	f.shards = make([]*shard, s)
	window := f.cfg.LinkDelaySlots + 1
	for i := 0; i < s; i++ {
		lo := i * len(f.nodes) / s
		hi := (i + 1) * len(f.nodes) / s
		for ni := lo; ni < hi; ni++ {
			f.nodeShard[ni] = i
		}
		f.shards[i] = newShard(f, i, lo, hi, s, window)
	}
	// Host ownership follows leaf ownership. XGFT's leaves lead the node
	// list in host order, so each shard owns a contiguous host range and
	// shard order is global host order, which the metric merge relies
	// on.
	f.hostShard = make([]int, f.cfg.Network.Hosts)
	for h := range f.hostShard {
		f.hostShard[h] = f.nodeShard[f.hostNode[h]]
		sh := f.shards[f.hostShard[h]]
		if sh.hostLo == sh.hostHi {
			sh.hostLo = h
		}
		sh.hostHi = h + 1
	}
	for _, sh := range f.shards {
		sh.order = packet.NewOrderCheckerFor(sh.hostLo, sh.hostHi)
	}
}

// Metrics exposes the measurements.
func (f *Fabric) Metrics() *Metrics { return &f.metrics }

// ShardCount reports the spatial partition width the fabric runs with.
func (f *Fabric) ShardCount() int { return len(f.shards) }

// measuringAt reports whether deliveries and arrivals in the given slot
// fall inside the measurement window.
func (f *Fabric) measuringAt(slot uint64) bool {
	return f.measuring || (f.measureSet && slot >= f.measureFrom)
}

// Step advances the whole fabric one packet cycle: every shard ticks
// its switches (concurrently when the fabric is partitioned), then the
// coordinator exchanges mailboxes and accounts deliveries.
func (f *Fabric) Step() error { return f.runWindow(1, nil) }

// injectPlan moves traffic generation into the shards for Run and
// Session: each shard drives its own hosts' generators.
type injectPlan struct {
	gens []traffic.Generator
	// until bounds injection (absolute slot, exclusive).
	until uint64
}

// runWindow advances every shard n slots, then exchanges cross-shard
// mailboxes and processes deliveries in global (slot, host) order.
func (f *Fabric) runWindow(n int, inj *injectPlan) error {
	if len(f.shards) == 1 {
		f.shards[0].advance(n, inj)
	} else {
		runShards(f.shards, n, inj)
	}
	for _, s := range f.shards {
		if s.err != nil {
			err := s.err
			s.err = nil
			return err
		}
	}
	f.exchange()
	f.processDelivered(n)
	f.mergeStats()
	f.slot += uint64(n)
	return nil
}

// exchange moves cross-shard mailbox contents into the destination
// shards' rings, and cells retired away from home onto their source
// shard's free list. Entries are merged in fixed (destination, source,
// generation) order, so the landing order inside every ring slot is
// independent of the execution schedule; state is insensitive to it
// anyway, because each link delivers at most one cell per slot and
// credit landings commute.
func (f *Fabric) exchange() {
	for ti, t := range f.shards {
		for _, s := range f.shards {
			if s == t {
				continue
			}
			for _, c := range s.retired[ti] {
				t.alloc.Free(c)
			}
			s.retired[ti] = s.retired[ti][:0]
			for _, fd := range s.outCells[ti] {
				k := int(fd.at) % f.ringLen
				t.inflight[k] = append(t.inflight[k], fd.d)
			}
			s.outCells[ti] = s.outCells[ti][:0]
			for _, fcr := range s.outCreds[ti] {
				k := int(fcr.at) % f.ringLen
				t.creditWire[k] = append(t.creditWire[k], fcr.cr)
			}
			s.outCreds[ti] = s.outCreds[ti][:0]
		}
	}
}

// processDelivered folds the shards' delivery records into the
// metrics. Iterating window offset first and shards second visits them
// in global (slot, host) order — the order a one-slot, one-shard Step
// loop sees — which keeps the latency collectors' floating-point
// accumulation bit-identical at every shard count and window length.
func (f *Fabric) processDelivered(n int) {
	for w := 0; w < n; w++ {
		measured := f.measuringAt(f.slot + uint64(w))
		for _, s := range f.shards {
			if measured {
				for _, r := range s.delivered[w] {
					f.metrics.Delivered++
					f.metrics.LatencySlots.Add(r.latency)
					if r.class == packet.Control {
						f.metrics.ControlLatencySlots.Add(r.latency)
					}
					f.metrics.HopHistogram[int(r.hops)]++
					if !r.inOrder {
						f.metrics.OrderViolations++
					}
				}
			}
			s.delivered[w] = s.delivered[w][:0]
		}
	}
}

// mergeStats folds per-node and per-shard counters into the metrics.
// All merged quantities are sums or maxima of cumulative counters, so
// merging at barriers yields exactly the per-slot values.
func (f *Fabric) mergeStats() {
	var blocked uint64
	maxVOQ := f.metrics.MaxVOQDepth
	for _, n := range f.nodes {
		blocked += n.fcBlocked
		if n.maxVOQDepth > maxVOQ {
			maxVOQ = n.maxVOQDepth
		}
	}
	offered := f.injectOffered
	maxIn := f.metrics.MaxInterInputDepth
	for _, s := range f.shards {
		offered += s.offered
		if s.maxInterInputDepth > maxIn {
			maxIn = s.maxInterInputDepth
		}
	}
	f.metrics.FCBlocked = blocked
	f.metrics.Offered = offered
	f.metrics.MaxVOQDepth = maxVOQ
	f.metrics.MaxInterInputDepth = maxIn
}

// Run drives the fabric with per-host generators through a warm-up
// then a measurement window: a whole Session timeline in one call.
// The shards advance concurrently in conservative-lookahead windows of
// LinkDelaySlots + 1 slots: an event emitted during a window cannot land
// in another shard before the window ends (cells and credits both fly
// for LinkDelaySlots + 1 slots), so shards only synchronize at window
// barriers. With zero link delay the window is one slot. Each shard
// drives its own hosts' generators (every one an independent seeded
// stream) and delivered cells are accounted centrally in (slot, host)
// order, so the metrics are byte-identical at any shard count — and to
// hand-driving the same arrivals through Inject and Step. A timeline
// ending past packet.MaxTimelineSlots is refused before any slot runs.
func (f *Fabric) Run(gens []traffic.Generator, warmup, measure uint64) (*Metrics, error) {
	if err := packet.CheckTimeline(f.slot, warmup, measure); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	if err := f.begin(gens, warmup, measure); err != nil {
		return nil, err
	}
	if err := f.advance(warmup + measure); err != nil {
		return nil, err
	}
	f.finish(measure)
	return &f.metrics, nil
}

// begin arms a warm-up + measurement timeline starting at the current
// slot: gens inject shard-side until its end, and the measurement window
// opens at slot+warmup, mid-window if need be.
func (f *Fabric) begin(gens []traffic.Generator, warmup, measure uint64) error {
	if len(gens) != f.cfg.Network.Hosts {
		return fmt.Errorf("fabric: %d generators for %d hosts", len(gens), f.cfg.Network.Hosts)
	}
	until, err := timelineEnd(f.slot, warmup, measure)
	if err != nil {
		return err
	}
	if measure > 0 {
		f.measureSet = true
		f.measureFrom = f.slot + warmup
		f.metrics.MeasureSlots = measure
	}
	f.inj = injectPlan{gens: gens, until: until}
	return nil
}

// timelineEnd returns start+warmup+measure, the absolute slot a
// timeline ends at, or an error when the sum overflows.
func timelineEnd(start, warmup, measure uint64) (uint64, error) {
	mid, c1 := bits.Add64(start, warmup, 0)
	end, c2 := bits.Add64(mid, measure, 0)
	if c1|c2 != 0 {
		return 0, fmt.Errorf("fabric: timeline from slot %d with %d warm-up and %d measured slots overflows the slot clock", start, warmup, measure)
	}
	return end, nil
}

// advance runs lookahead windows until the timeline ends or maxSlots
// are spent, pausing only at window barriers. A call that would take
// the clock past packet.MaxTimelineSlots is refused before it steps, so
// an open-ended session stops there instead of wrapping the 32-bit flow
// counters.
func (f *Fabric) advance(maxSlots uint64) error {
	if f.slot < f.inj.until {
		if n := min(maxSlots, f.inj.until-f.slot); f.slot+n > packet.MaxTimelineSlots {
			return fmt.Errorf("fabric: advancing %d slots from slot %d passes slot %d, the bound the 32-bit flow counters hold",
				n, f.slot, uint64(packet.MaxTimelineSlots))
		}
	}
	window := uint64(f.cfg.LinkDelaySlots + 1)
	for maxSlots > 0 && f.slot < f.inj.until {
		n := min(window, f.inj.until-f.slot, maxSlots)
		if err := f.runWindow(int(n), &f.inj); err != nil {
			return err
		}
		maxSlots -= n
	}
	return nil
}

// finish closes the timeline, leaving the measuring flag set after a
// measurement so later Drain deliveries still count.
func (f *Fabric) finish(measure uint64) {
	if measure > 0 {
		f.measuring = true
	}
	f.measureSet = false
}

// Drain runs extra slots with no arrivals until all queues empty or the
// budget is exhausted; used by lossless-delivery tests.
func (f *Fabric) Drain(maxSlots uint64) (bool, error) {
	for i := uint64(0); i < maxSlots; i++ {
		if f.Idle() {
			return true, nil
		}
		if err := f.Step(); err != nil {
			return false, err
		}
	}
	return f.Idle(), nil
}

// Idle reports whether every buffer, link, and flow-control loop in the
// fabric is empty. Credit returns still in flight count as activity: a
// drain that stopped while the credit wire was busy would strand the
// upstream windows below capacity and silently throttle a reused
// fabric.
func (f *Fabric) Idle() bool {
	for _, n := range f.nodes {
		if !n.idle() {
			return false
		}
	}
	for _, s := range f.shards {
		for _, batch := range s.inflight {
			if len(batch) > 0 {
				return false
			}
		}
		for _, batch := range s.creditWire {
			if len(batch) > 0 {
				return false
			}
		}
		for _, out := range s.outCells {
			if len(out) > 0 {
				return false
			}
		}
		for _, out := range s.outCreds {
			if len(out) > 0 {
				return false
			}
		}
	}
	for _, e := range f.hostEgress {
		if e.Queued() > 0 {
			return false
		}
	}
	return true
}
