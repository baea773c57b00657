package fabric

import (
	"fmt"
	"testing"

	"repro/internal/fc"
	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/traffic"
	"repro/internal/units"
)

// --- satellite 1: Idle must see in-flight credit returns -------------

// TestIdleSeesInFlightCredits pins the Drain/Idle contract: after a
// cell is delivered, its freed input slot's credit is still flying back
// upstream for LinkDelaySlots+1 slots, and the fabric must not report
// idle until it lands. (The pre-fix Idle ignored the credit wire, so
// Drain could strand a reused fabric below its credit capacity.)
func TestIdleSeesInFlightCredits(t *testing.T) {
	f := smallFabric(t, nil)
	// One cross-leaf cell: host 0 -> host 4 traverses leaf, spine, leaf.
	c := f.hostAlloc(0).New(0, 4, packet.Data, 0)
	if err := f.Inject(c); err != nil {
		t.Fatal(err)
	}
	sawBusyAfterDelivery := false
	var idleAt uint64
	for i := 0; i < 200; i++ {
		if f.Idle() {
			idleAt = f.Slot()
			break
		}
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		if f.hostEgressEmpty() && f.nodesEmpty() && !f.Idle() {
			// Every queue is empty yet the fabric is busy: only credit
			// returns (or link flights) remain. This is the state the
			// buggy Idle misclassified.
			sawBusyAfterDelivery = true
		}
	}
	if idleAt == 0 {
		t.Fatal("fabric never went idle")
	}
	if !sawBusyAfterDelivery {
		t.Error("never observed empty-queues-but-busy state; test lost its teeth")
	}
	// The regression's observable damage: credits must all be home.
	for _, n := range f.nodes {
		for out, cr := range n.credits {
			if cr == nil {
				continue
			}
			if got := creditsHeld(cr); got != f.cfg.InputCapacity {
				t.Errorf("node %v out %d: %d credits after idle, want %d",
					n.id, out, got, f.cfg.InputCapacity)
			}
		}
	}
}

func (f *Fabric) hostEgressEmpty() bool {
	for _, e := range f.hostEgress {
		if e.Queued() > 0 {
			return false
		}
	}
	return true
}

func (f *Fabric) nodesEmpty() bool {
	for _, n := range f.nodes {
		if !n.idle() {
			return false
		}
	}
	return true
}

// slowIdle re-derives node idleness the way the pre-active-set kernel
// did — a full scan of every VOQ set and option-1 egress queue. Kept as
// the oracle for TestIdleMatchesSlowScan, which pins the O(1) resident
// counter to this scan.
func (n *node) slowIdle() bool {
	for in := 0; in < n.radix; in++ {
		if n.bank.Depth(in) > 0 {
			return false
		}
	}
	if n.egress != nil {
		for _, e := range n.egress {
			if e.Queued() > 0 {
				return false
			}
		}
	}
	return true
}

// TestIdleMatchesSlowScan drives real traffic through both buffer
// placements and checks, every slot of the run and of the subsequent
// drain, that the maintained resident counter agrees with the full scan
// for every node. The drain tail matters most: that is where nodes
// empty one by one and a stale counter would strand (or prematurely
// sleep) a node in the active set.
func TestIdleMatchesSlowScan(t *testing.T) {
	for _, opt1 := range []bool{false, true} {
		name := "option3"
		if opt1 {
			name = "option1"
		}
		t.Run(name, func(t *testing.T) {
			f := smallFabric(t, func(c *Config) { c.EgressBuffered = opt1 })
			gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: 32, Load: 0.8, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			check := func(phase string) {
				t.Helper()
				for ni, n := range f.nodes {
					if got, want := n.idle(), n.slowIdle(); got != want {
						t.Fatalf("%s slot %d: node %d idle()=%v but scan says %v (resident=%d egress=%d)",
							phase, f.Slot(), ni, got, want, n.bank.Resident(), n.egressCells)
					}
				}
			}
			for i := 0; i < 600; i++ {
				if err := injectArrivals(f, gens); err != nil {
					t.Fatal(err)
				}
				if err := f.Step(); err != nil {
					t.Fatal(err)
				}
				check("run")
			}
			for i := 0; i < 20000 && !f.Idle(); i++ {
				if err := f.Step(); err != nil {
					t.Fatal(err)
				}
				check("drain")
			}
			if !f.Idle() {
				t.Fatal("fabric failed to drain")
			}
		})
	}
}

// TestDrainRestoresCredits runs real traffic, drains, and requires the
// full credit population back in every counter — the end-to-end version
// of the Idle regression.
func TestDrainRestoresCredits(t *testing.T) {
	f := smallFabric(t, nil)
	runFabric(t, f, traffic.KindUniform, 0.8, 0, 2000)
	drained, err := f.Drain(20000)
	if err != nil || !drained {
		t.Fatalf("drain failed: %v", err)
	}
	for _, n := range f.nodes {
		for out, cr := range n.credits {
			if cr == nil {
				continue
			}
			if got := creditsHeld(cr); got != f.cfg.InputCapacity {
				t.Errorf("node %v out %d: %d credits after drain, want %d",
					n.id, out, got, f.cfg.InputCapacity)
			}
		}
	}
}

// --- satellite 2: FC loop latency matches fc.LoopRTT -----------------

// TestCreditLoopRTTMatchesSizingFormula pins the end-to-end credit loop
// with a deterministic single-flow experiment: InputCapacity 1 makes
// every inter-switch link a stop-and-wait channel, so the steady-state
// spacing between deliveries is exactly the loop RTT the sizing formula
// fc.LoopRTT(LinkDelaySlots, 1) promises. The pre-fix engine stacked a
// fixed +1 credit wire on top of fc.Credits' own max(D,1) pipeline,
// which overshot the formula at D=0.
func TestCreditLoopRTTMatchesSizingFormula(t *testing.T) {
	for _, d := range []int{0, 2, 5} {
		d := d
		t.Run(fmt.Sprintf("delay%d", d), func(t *testing.T) {
			cfg := Config{
				Network:        testNet(32, 8),
				Receivers:      2,
				NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
				LinkDelaySlots: d,
				InputCapacity:  1,
			}
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(fc.LoopRTT(d, 1))
			// Saturate one cross-leaf flow: host 0 -> host 4.
			var deliverySlots []uint64
			seen := uint64(0)
			f.StartMeasurement()
			for slot := uint64(0); slot < 40*want; slot++ {
				c := f.hostAlloc(0).New(0, 4, packet.Data, units.Time(slot)*f.metrics.CycleTime)
				if err := f.Inject(c); err != nil {
					t.Fatal(err)
				}
				if err := f.Step(); err != nil {
					t.Fatal(err)
				}
				if f.metrics.Delivered > seen {
					seen = f.metrics.Delivered
					deliverySlots = append(deliverySlots, f.Slot())
				}
			}
			if len(deliverySlots) < 10 {
				t.Fatalf("only %d deliveries", len(deliverySlots))
			}
			// Skip the pipeline-fill transient; the tail must tick at
			// exactly one delivery per loop RTT.
			for i := len(deliverySlots) - 8; i < len(deliverySlots); i++ {
				if gap := deliverySlots[i] - deliverySlots[i-1]; gap != want {
					t.Fatalf("delivery gap %d slots at delay %d, want LoopRTT=%d (slots %v)",
						gap, d, want, deliverySlots[len(deliverySlots)-9:])
				}
			}
		})
	}
}

// TestDefaultBufferSustainsFullRate is the converse: with the default
// fc.BufferFor sizing the same stop-and-wait flow must stream at one
// cell per slot — proving the sizing formula and the modeled RTT agree.
func TestDefaultBufferSustainsFullRate(t *testing.T) {
	for _, d := range []int{0, 3} {
		f, err := New(Config{
			Network: testNet(32, 8), Receivers: 2,
			NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
			LinkDelaySlots: d,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.StartMeasurement()
		const slots = 400
		for slot := uint64(0); slot < slots; slot++ {
			c := f.hostAlloc(0).New(0, 4, packet.Data, units.Time(slot)*f.metrics.CycleTime)
			if err := f.Inject(c); err != nil {
				t.Fatal(err)
			}
			if err := f.Step(); err != nil {
				t.Fatal(err)
			}
		}
		// All but the pipeline fill must be out: full rate, zero stalls.
		fill := uint64(3 * (d + 2))
		if f.metrics.Delivered < slots-fill {
			t.Errorf("delay %d: %d of %d delivered; default buffer cannot sustain full rate",
				d, f.metrics.Delivered, slots)
		}
		if f.metrics.FCBlocked != 0 {
			t.Errorf("delay %d: %d FC stalls on a correctly sized loop", d, f.metrics.FCBlocked)
		}
	}
}

// --- satellite 3: zero allocations on the steady-state tick ----------

// TestStepZeroAllocsSteadyState pins the whole per-slot path — traffic
// draw, injection, arbitration, link rings, delivery, cell recycling —
// at zero heap allocations per slot once warm, both hand-driven
// (Inject + Step) and through Run. Measurement is off so the latency
// collectors (which legitimately grow) stay out of frame.
func TestStepZeroAllocsSteadyState(t *testing.T) {
	f := smallFabric(t, nil)
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: 32, Load: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if err := injectArrivals(f, gens); err != nil {
			t.Fatal(err)
		}
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: grow rings, FIFOs, and the allocator free list to their
	// steady-state capacity, then drain so the free list holds every
	// cell ever issued.
	for i := 0; i < 3000; i++ {
		step()
	}
	if drained, err := f.Drain(20000); err != nil || !drained {
		t.Fatalf("warm-up drain failed: %v", err)
	}
	if avg := testing.AllocsPerRun(400, step); avg != 0 {
		t.Errorf("steady-state slot allocates %.1f objects, want 0", avg)
	}
	// Sleep/wake cycle: a full drain empties the active sets (idle ticks
	// on sleeping nodes), and the re-burst walks the wake path — active
	// bits re-set on push, deferred SkipIdle replays at the first
	// arbitrate. All of it must stay allocation-free too.
	if drained, err := f.Drain(20000); err != nil || !drained {
		t.Fatalf("mid-test drain failed: %v", err)
	}
	idleStep := func() {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, idleStep); avg != 0 {
		t.Errorf("idle slot with sleeping nodes allocates %.1f objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(400, step); avg != 0 {
		t.Errorf("post-drain re-burst slot allocates %.1f objects, want 0", avg)
	}
	// Run at its smallest call, one slot: shard-side injection draws
	// from the shard allocators, so warm those the same way first. The
	// inject plan lives inline in the fabric, so the call itself must
	// not allocate either.
	if _, err := f.Run(gens, 3000, 0); err != nil {
		t.Fatal(err)
	}
	if drained, err := f.Drain(20000); err != nil || !drained {
		t.Fatalf("Run warm-up drain failed: %v", err)
	}
	runSlot := func() {
		if _, err := f.Run(gens, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(400, runSlot); avg != 0 {
		t.Errorf("Run(gens, 1, 0) allocates %.1f objects per call, want 0", avg)
	}

	// Two shards under hotspot traffic: shard 0's hosts send most of
	// their cells to hot port 31 on shard 1, so shard 1 delivers far
	// more cells than it issues. Each delivered cell must go back to
	// the allocator of its source's shard; freed where it was delivered
	// instead, shard 0 would heap-allocate about every other cell while
	// shard 1's free list grew without bound. A two-shard window pays a
	// fixed allocation cost for its worker fan-out, so the busy slots
	// are held to exactly what idle two-shard slots allocate, counted
	// over 400 slots at once (AllocsPerRun truncates a per-call mean).
	hf := smallFabric(t, func(c *Config) { c.Shards = 2 })
	hot, err := traffic.Build(traffic.Config{Kind: traffic.KindHotspot, N: 32, Load: 0.05,
		HotFraction: 0.5, HotPort: 31, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if hf.hostShard[0] == hf.hostShard[31] {
		t.Fatal("hot port shares shard 0; the case lost its cross-shard traffic")
	}
	if _, err := hf.Run(hot, 3000, 0); err != nil {
		t.Fatal(err)
	}
	if drained, err := hf.Drain(20000); err != nil || !drained {
		t.Fatalf("hotspot warm-up drain failed: %v", err)
	}
	const slots = 400
	idle := testing.AllocsPerRun(1, func() {
		for i := 0; i < slots; i++ {
			if err := hf.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	busy := testing.AllocsPerRun(1, func() {
		for i := 0; i < slots; i++ {
			if _, err := hf.Run(hot, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	if busy != idle {
		t.Errorf("2-shard hotspot: %d Run(gens, 1, 0) calls allocate %.0f objects, %d idle slots %.0f; want equal",
			slots, busy, slots, idle)
	}
}

// TestOrderViolationReachesMetrics hand-reorders one flow — the second
// cell injected a few slots before the first — and checks that the
// shard-side order check reports exactly one violation in the metrics,
// on one shard and on two (where the flow crosses the shard boundary).
func TestOrderViolationReachesMetrics(t *testing.T) {
	for _, shards := range []int{1, 2} {
		f := smallFabric(t, func(c *Config) { c.Shards = shards })
		const src, dst = 0, 28
		if shards == 2 && f.hostShard[src] == f.hostShard[dst] {
			t.Fatal("flow stays inside one shard; the case lost its cross-shard path")
		}
		f.StartMeasurement()
		a := f.hostAlloc(src)
		first := a.New(src, dst, packet.Data, 0)
		second := a.New(src, dst, packet.Data, 0)
		if err := f.Inject(second); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := f.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Inject(first); err != nil {
			t.Fatal(err)
		}
		if drained, err := f.Drain(1000); err != nil || !drained {
			t.Fatalf("shards=%d: drain failed: %v", shards, err)
		}
		m := f.Metrics()
		if m.Delivered != 2 || m.OrderViolations != 1 {
			t.Errorf("shards=%d: delivered %d, violations %d; want 2 and 1", shards, m.Delivered, m.OrderViolations)
		}
	}
}

// --- golden determinism across shard counts --------------------------

// hostAlloc is the allocator that issues host h's cells: the one of the
// shard owning h's leaf, which is where delivery returns them.
func (f *Fabric) hostAlloc(h int) *packet.Allocator { return f.shards[f.hostShard[h]].alloc }

// injectArrivals draws one slot of arrivals from gens and injects them
// from the coordinator, through Inject and the source hosts' shard
// allocators.
func injectArrivals(f *Fabric, gens []traffic.Generator) error {
	now := units.Time(f.slot) * f.metrics.CycleTime
	for h, g := range gens {
		a, ok := g.Next(f.slot)
		if !ok {
			continue
		}
		cls := packet.Data
		if a.Class == traffic.ClassControl {
			cls = packet.Control
		}
		if err := f.Inject(f.hostAlloc(h).New(h, a.Dst, cls, now)); err != nil {
			return err
		}
	}
	return nil
}

// serialRun is Run's test oracle: the same warm-up + measurement
// timeline driven one Step at a time, with every arrival injected by
// the coordinator. Run — windowed, injecting shard-side — must match it
// byte-for-byte at every shard count.
func serialRun(f *Fabric, gens []traffic.Generator, warmup, measure uint64) (*Metrics, error) {
	for t := uint64(0); t < warmup+measure; t++ {
		if t == warmup {
			f.StartMeasurement()
			f.metrics.MeasureSlots = measure
		}
		if err := injectArrivals(f, gens); err != nil {
			return nil, err
		}
		if err := f.Step(); err != nil {
			return nil, err
		}
	}
	return &f.metrics, nil
}

// runSharded builds the fabric, runs it (the serialRun oracle on one
// shard when shards == 0, Run otherwise), drains, and fingerprints.
func runSharded(t *testing.T, cfg Config, tcfg traffic.Config, shards int, warmup, measure uint64) (string, *Metrics, *Fabric) {
	t.Helper()
	cfg.Shards = shards
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := traffic.Build(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	var m *Metrics
	if shards == 0 {
		m, err = serialRun(f, gens, warmup, measure)
	} else {
		m, err = f.Run(gens, warmup, measure)
	}
	if err != nil {
		t.Fatal(err)
	}
	drained, err := f.Drain(400000)
	if err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("failed to drain")
	}
	return m.Fingerprint(), m, f
}

// TestGoldenDeterminism2048Ports is the acceptance run: the paper-scale
// 2048-port, 3-stage fabric at 0.95 load must produce byte-identical
// metrics from the serialRun oracle and from Run at shard counts 1, 2,
// and 4, while staying lossless and in order.
func TestGoldenDeterminism2048Ports(t *testing.T) {
	cfg := Config{
		Network:        testNet(2048, 64),
		Receivers:      2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(64, 0) },
		LinkDelaySlots: 5,
	}
	tcfg := traffic.Config{Kind: traffic.KindUniform, N: 2048, Load: 0.95, Seed: 1}
	// No warm-up: with measurement from slot 0, offered == delivered
	// after the drain is the exact conservation (lossless) statement.
	warmup, measure := uint64(0), uint64(180)

	// Fingerprint captured from the pre-bitboard kernel (scalar demand
	// reads, every node arbitrated every slot). The optimized kernel is
	// required to be a pure perf change: byte-identical metrics.
	const pinned = "offered=350284 delivered=350284 slots=180 lat[n=350284 mean=0x1.08p+05 sd=0x1.2fa0f09104be7p+04 min=0x1p+00 max=0x1.b6p+07 p50=0x1.ap+04 p99=0x1.a8p+06] ctl[empty] hops[ 1:5307 3:344977] viol=0 drop=0 fcblk=111088 maxvoq=72 maxin=13"

	ref, m, f := runSharded(t, cfg, tcfg, 0, warmup, measure)
	if f.ShardCount() != 1 {
		t.Fatalf("serial reference ran with %d shards", f.ShardCount())
	}
	if ref != pinned {
		t.Errorf("serial kernel diverged from the pre-optimization fingerprint:\n  pin: %s\n  got: %s", pinned, ref)
	}
	if m.Delivered == 0 {
		t.Fatal("nothing delivered at scale")
	}
	if m.OrderViolations != 0 || m.Dropped != 0 {
		t.Errorf("reference run: violations=%d drops=%d", m.OrderViolations, m.Dropped)
	}
	if m.Offered != m.Delivered {
		t.Errorf("reference run leaked cells: offered %d delivered %d", m.Offered, m.Delivered)
	}
	if m.MaxInterInputDepth > f.cfg.InputCapacity {
		t.Errorf("input buffer hit %d cells, capacity %d", m.MaxInterInputDepth, f.cfg.InputCapacity)
	}
	for _, shards := range []int{1, 2, 4} {
		got, _, pf := runSharded(t, cfg, tcfg, shards, warmup, measure)
		if want := shards; pf.ShardCount() != want {
			t.Fatalf("asked for %d shards, got %d", want, pf.ShardCount())
		}
		if got != ref {
			t.Errorf("shards=%d diverged from serial reference:\n  ref: %s\n  got: %s", shards, ref, got)
		}
	}
}

// TestGoldenDeterminismSmallShapes sweeps the awkward corners cheaply:
// zero link delay (window collapses to one slot), option-1 egress
// buffering, bursty arrivals, and shard counts that do not divide the
// switch count.
func TestGoldenDeterminismSmallShapes(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		tcfg traffic.Config
		// pinned is the fingerprint captured from the pre-bitboard
		// kernel; the optimized kernel must reproduce it byte-for-byte.
		pinned string
	}{
		{
			name: "delay0",
			cfg: Config{Network: testNet(32, 8), Receivers: 2,
				NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
				LinkDelaySlots: 0},
			tcfg:   traffic.Config{Kind: traffic.KindUniform, N: 32, Load: 0.8, Seed: 11},
			pinned: "offered=38436 delivered=38714 slots=1500 lat[n=38714 mean=0x1.ap+04 sd=0x1.321ef991b7653p+06 min=0x1p+00 max=0x1.a6p+09 p50=0x1p+03 p99=0x1.c2p+08] ctl[empty] hops[ 1:3689 3:35025] viol=0 drop=0 fcblk=10352 maxvoq=315 maxin=4",
		},
		{
			name: "option1",
			cfg: Config{Network: testNet(32, 8), Receivers: 2,
				NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
				LinkDelaySlots: 2, EgressBuffered: true},
			tcfg:   traffic.Config{Kind: traffic.KindUniform, N: 32, Load: 0.7, Seed: 12},
			pinned: "offered=33473 delivered=33723 slots=1500 lat[n=33723 mean=0x1.8p+03 sd=0x1.dc0635b72d7ecp+01 min=0x1p+01 max=0x1.dp+04 p50=0x1.8p+03 p99=0x1.4p+04] ctl[empty] hops[ 1:3189 3:30534] viol=0 drop=0 fcblk=0 maxvoq=2 maxin=3",
		},
		{
			name: "bursty",
			cfg: Config{Network: testNet(32, 8), Receivers: 2,
				NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
				LinkDelaySlots: 3},
			tcfg:   traffic.Config{Kind: traffic.KindBursty, N: 32, Load: 0.6, Seed: 13},
			pinned: "offered=29230 delivered=30173 slots=1500 lat[n=30173 mean=0x1.88p+06 sd=0x1.23ce8d277d1p+07 min=0x1p+00 max=0x1.a7p+10 p50=0x1.8p+05 p99=0x1.588p+09] ctl[empty] hops[ 1:3584 3:26589] viol=0 drop=0 fcblk=21430 maxvoq=357 maxin=10",
		},
		{
			name: "hotspot",
			cfg: Config{Network: testNet(32, 8), Receivers: 2,
				NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
				LinkDelaySlots: 4},
			tcfg: traffic.Config{Kind: traffic.KindHotspot, N: 32, Load: 0.9,
				HotPort: 0, HotFraction: 0.5, Seed: 14},
			pinned: "offered=43185 delivered=47038 slots=1500 lat[n=47038 mean=0x1.cb5p+12 sd=0x1.af0ad244261fdp+12 min=0x1p+00 max=0x1.6ec8p+14 p50=0x1.60bp+12 p99=0x1.66c4p+14] ctl[empty] hops[ 1:4418 3:42620] viol=0 drop=0 fcblk=122690 maxvoq=1419 maxin=12",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref, _, _ := runSharded(t, tc.cfg, tc.tcfg, 0, 200, 1500)
			if ref != tc.pinned {
				t.Errorf("serial kernel diverged from the pre-optimization fingerprint:\n  pin: %s\n  got: %s", tc.pinned, ref)
			}
			for _, shards := range []int{1, 2, 3, 5, 7, 1 << 10} {
				got, _, pf := runSharded(t, tc.cfg, tc.tcfg, shards, 200, 1500)
				if got != ref {
					t.Errorf("shards=%d (clamped %d) diverged:\n  ref: %s\n  got: %s",
						shards, pf.ShardCount(), ref, got)
				}
			}
		})
	}
}

// TestShardsClampAndPartition checks the partition invariants directly.
func TestShardsClampAndPartition(t *testing.T) {
	f := smallFabric(t, func(c *Config) { c.Shards = 1 << 20 })
	if f.ShardCount() != len(f.nodes) {
		t.Errorf("shard count %d, want clamp to %d nodes", f.ShardCount(), len(f.nodes))
	}
	f = smallFabric(t, func(c *Config) { c.Shards = 3 })
	covered := 0
	for i, s := range f.shards {
		if s.nodeHi < s.nodeLo {
			t.Fatalf("shard %d inverted", i)
		}
		covered += s.nodeHi - s.nodeLo
		for ni := s.nodeLo; ni < s.nodeHi; ni++ {
			if f.nodeShard[ni] != i {
				t.Errorf("node %d mapped to shard %d, owned by %d", ni, f.nodeShard[ni], i)
			}
		}
		for h := s.hostLo; h < s.hostHi; h++ {
			if f.nodeShard[f.hostNode[h]] != i {
				t.Errorf("host %d owned by shard %d but attaches elsewhere", h, i)
			}
		}
	}
	if covered != len(f.nodes) {
		t.Errorf("shards cover %d of %d nodes", covered, len(f.nodes))
	}
}

// TestRunMidstreamWarmupCrossing pins the measuring window when the
// warm-up boundary falls inside a lookahead window (warmup not a
// multiple of LinkDelaySlots+1), on one shard as well as several.
func TestRunMidstreamWarmupCrossing(t *testing.T) {
	cfg := Config{Network: testNet(32, 8), Receivers: 2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 3} // window = 4
	tcfg := traffic.Config{Kind: traffic.KindUniform, N: 32, Load: 0.6, Seed: 21}
	ref, _, _ := runSharded(t, cfg, tcfg, 0, 333, 777)
	for _, shards := range []int{1, 4} {
		if got, _, _ := runSharded(t, cfg, tcfg, shards, 333, 777); got != ref {
			t.Errorf("shards=%d: odd warmup/measure diverged:\n  ref: %s\n  got: %s", shards, ref, got)
		}
	}
}
