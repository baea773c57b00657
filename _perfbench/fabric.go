package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// fabricRegime is a flagship workload: the paper's 2048-port, radix-64
// two-level fat tree with FLPPR, dual receivers and credit flow control,
// driven through fabric.Session.
type fabricRegime struct {
	name        string
	kind        traffic.Kind
	load        float64
	shards      int    // fabric.Config.Shards
	opSlots     uint64 // slots per op
	warmupSlots uint64 // unmeasured warm-up before the golden ops
	goldenOps   int    // measured ops before the timed region whose fingerprint is pinned
}

const (
	flagshipHosts = 2048
	flagshipRadix = 64
	flagshipDelay = 5
	setupSamples  = 15
)

var busy = fabricRegime{
	name: "fabric_busy", kind: traffic.KindUniform, load: 0.75, shards: 2,
	opSlots: 60, warmupSlots: 300, goldenOps: 5,
}

// trafficConfig derives the generator set's configuration from the
// workload seed.
func (g fabricRegime) trafficConfig(seed uint64) traffic.Config {
	return traffic.Config{
		Kind: g.kind, N: flagshipHosts, Load: g.load,
		Seed: sim.DeriveSeed(seed, 0xfab),
	}
}

// flagship is one built engine plus the handles the benchmark drives.
type flagship struct {
	sess *fabric.Session
	sch  *tracedFactory // nil for untraced builds
}

// build constructs the fabric, its generators and the session: the
// set-up a user of the flagship pays before the first slot.
func (g fabricRegime) build(seed uint64, traced bool) (*flagship, error) {
	x, err := fabric.NewXGFT(flagshipHosts, flagshipRadix, 0)
	if err != nil {
		return nil, err
	}
	cfg := fabric.Config{
		Network: x, Receivers: 2, LinkDelaySlots: flagshipDelay, Shards: g.shards,
	}
	var tf *tracedFactory
	if traced {
		tf = &tracedFactory{inner: func() sched.Scheduler { return sched.NewFLPPR(flagshipRadix, 0) }}
		cfg.NewScheduler = tf.build
	}
	f, err := fabric.New(cfg)
	if err != nil {
		return nil, err
	}
	gens, err := traffic.Build(g.trafficConfig(seed))
	if err != nil {
		return nil, err
	}
	// The measured window is open-ended: ops keep going until the clock
	// runs out, and every pause point is deterministic.
	sess, err := fabric.StartSession(f, gens, g.warmupSlots, 1<<40)
	if err != nil {
		return nil, err
	}
	return &flagship{sess: sess, sch: tf}, nil
}

// setUp builds the engine setupSamples times from scratch, timing each
// build, and keeps the last one.
func (g fabricRegime) setUp(seed uint64, traced bool, r *run) (*flagship, error) {
	var fs *flagship
	for i := 0; i < setupSamples; i++ {
		fs = nil // let settle collect the previous build
		settle()
		start := time.Now()
		var err error
		if fs, err = g.build(seed, traced); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	return fs, nil
}

// advance runs one op of n slots, either as one call or (traced) as one
// call per lookahead window, recording each window's wall time.
func (fs *flagship) advance(n uint64, windows *[]float64) error {
	if windows == nil {
		_, err := fs.sess.Advance(n)
		return err
	}
	w := uint64(flagshipDelay + 1)
	for n > 0 {
		step := min(w, n)
		start := time.Now()
		if _, err := fs.sess.Advance(step); err != nil {
			return err
		}
		*windows = append(*windows, time.Since(start).Seconds())
		n -= step
	}
	return nil
}

// check applies the per-op invariants: lossless and in order.
func (fs *flagship) check(r *run, op int) {
	r.attempted++
	m := fs.sess.Metrics()
	if m.Dropped != 0 || m.OrderViolations != 0 {
		r.fail("op %d: dropped=%d order_violations=%d", op, m.Dropped, m.OrderViolations)
	}
}

// prologue warms the engine up, runs the golden ops and checks their
// fingerprint (default seed only), then settles the heap.
func (g fabricRegime) prologue(fs *flagship, seed uint64, r *run) error {
	if _, err := fs.sess.Advance(g.warmupSlots); err != nil {
		return err
	}
	for i := 0; i < g.goldenOps; i++ {
		if err := fs.advance(g.opSlots, nil); err != nil {
			return err
		}
		fs.check(r, i)
	}
	if seed == DefaultSeed {
		if want, got := goldens.Fabric[g.name], fingerprintHash(fs.sess.Metrics().Fingerprint()); got != want {
			r.fail("%s fingerprint after %d ops: %s, golden %s", g.name, g.goldenOps, got, want)
		}
	}
	settle()
	return nil
}

// timedOps runs ops until the clock runs out (or, when limit > 0, for
// exactly limit ops), returning the region's statistics.
func (g fabricRegime) timedOps(fs *flagship, seconds float64, limit int, windows *[]float64, r *run) (regionStats, error) {
	return timedLoop(seconds, limit, 1, func(n int) error {
		// Each op starts a fresh latency window, so op cost and memory do
		// not depend on how many ops fit in the run.
		m := fs.sess.Metrics()
		m.LatencySlots.Reset()
		m.ControlLatencySlots.Reset()
		start := time.Now()
		if err := fs.advance(g.opSlots, windows); err != nil {
			return err
		}
		r.opDone(time.Since(start).Seconds())
		fs.check(r, g.goldenOps+n)
		return nil
	})
}

func (g fabricRegime) timed(seed uint64, seconds float64) (*run, error) {
	r := &run{}
	fs, err := g.setUp(seed, false, r)
	if err != nil {
		return nil, err
	}
	if err := g.prologue(fs, seed, r); err != nil {
		return nil, err
	}
	if r.region, err = g.timedOps(fs, seconds, 0, nil, r); err != nil {
		return nil, err
	}
	r.work = float64(uint64(len(r.ops)) * g.opSlots)
	return r, nil
}

// cellHops sums delivered cells times switches crossed.
func cellHops(m *fabric.Metrics) uint64 {
	var t uint64
	for h, n := range m.HopHistogram {
		t += uint64(h) * n
	}
	return t
}

// traced runs an untraced phase for half the time, then the same number
// of ops again on a fresh engine whose schedulers are wrapped and whose
// windows are timed one by one, then replays an identically built
// generator set alone over the same slots to time traffic generation.
// The two phases must end on the same fingerprint.
func (g fabricRegime) traced(seed uint64, seconds float64) (*run, map[string]metric, error) {
	r := &run{}

	// Untraced phase.
	fs, err := g.setUp(seed, false, r)
	if err != nil {
		return nil, nil, err
	}
	if err := g.prologue(fs, seed, r); err != nil {
		return nil, nil, err
	}
	hopsBefore := cellHops(fs.sess.Metrics())
	plain, err := g.timedOps(fs, seconds/2, 0, nil, r)
	if err != nil {
		return nil, nil, err
	}
	nOps := len(r.ops)
	hops := cellHops(fs.sess.Metrics()) - hopsBefore
	plainPrint := fs.sess.Metrics().Fingerprint()

	// Traced phase: same seed, same op count, wrapped schedulers.
	settle()
	ts, err := g.build(seed, true)
	if err != nil {
		return nil, nil, err
	}
	if err := g.prologue(ts, seed, r); err != nil {
		return nil, nil, err
	}
	before := ts.sch.totals()
	shards := ts.sess.Fabric().ShardCount()
	shardBefore := ts.sch.tickNsByShard(shards)
	fcBefore := ts.sess.Metrics().FCBlocked
	regionStart := ts.sess.Slot()
	var windows []float64
	r.ops = r.ops[:0]
	traced, err := g.timedOps(ts, 0, nOps, &windows, r)
	if err != nil {
		return nil, nil, err
	}
	regionEnd := ts.sess.Slot()
	after := ts.sch.totals()
	shardAfter := ts.sch.tickNsByShard(shards)
	fcBlocked := ts.sess.Metrics().FCBlocked - fcBefore
	r.attempted++
	if got := ts.sess.Metrics().Fingerprint(); got != plainPrint {
		r.fail("traced run fingerprint differs from untraced run:\n  traced   %s\n  untraced %s", got, plainPrint)
	}
	nodes := len(ts.sch.traces)

	// Traffic replay over the traced region's slots.
	settle()
	nextNs, err := replayTraffic(g.trafficConfig(seed), regionStart, regionEnd)
	if err != nil {
		return nil, nil, err
	}

	slots := float64(regionEnd - regionStart)
	ticks := float64(after.ticks - before.ticks)
	matched := float64(after.matched - before.matched)
	tickNs := float64(after.tickNs - before.tickNs)
	nextTotal := nextNs * slots * flagshipHosts
	tracedCPUNs := traced.cpu * 1e9
	var maxShard, sumShard float64
	for i := range shardAfter {
		d := float64(shardAfter[i] - shardBefore[i])
		sumShard += d
		maxShard = max(maxShard, d)
	}
	plainRate := float64(uint64(nOps)*g.opSlots) / plain.wall
	tracedRate := slots / traced.wall
	layers := map[string]metric{
		"sched.tick_ns":               {tickNs / ticks, "ns"},
		"sched.matched_per_tick":      {matched / ticks, "count"},
		"sched.sleep_share":           {float64(after.skipped-before.skipped) / (float64(nodes) * slots), "share"},
		"traffic.next_ns":             {nextNs, "ns"},
		"traffic.cpu_share":           {nextTotal / tracedCPUNs, "share"},
		"fabric.window_p50_s":         {median(windows), "s"},
		"fabric.window_p90_s":         {quantile(windows, 0.9), "s"},
		"fabric.cpu_share_other":      {1 - (tickNs+nextTotal)/tracedCPUNs, "share"},
		"fabric.ns_per_cell_hop":      {plain.cpu * 1e9 / float64(hops), "ns"},
		"fabric.fc_blocked_per_grant": {float64(fcBlocked) / matched, "ratio"},
		"parallel.core_util":          {plain.cpu / (plain.wall * float64(runtime.GOMAXPROCS(0))), "share"},
		"parallel.shard_imbalance":    {maxShard / (sumShard / float64(len(shardAfter))), "ratio"},
		"runtime.alloc_bytes_per_op":  {float64(plain.allocBytes) / float64(nOps), "bytes"},
		"runtime.gc_cycles":           {float64(plain.gcCycles), "count"},
		"trace.overhead_share":        {1 - tracedRate/plainRate, "share"},
	}
	fmt.Printf("trace: %d ops per phase, %d switches, %d windows timed, untraced %.1f slots/s, traced %.1f slots/s\n",
		nOps, nodes, len(windows), plainRate, tracedRate)
	return r, layers, nil
}

// replayTraffic rebuilds the generator set and calls Next for every host
// and slot from 0 to end (generator state depends on every earlier
// call), timing only the slots in [from, end). It reports ns per call.
func replayTraffic(cfg traffic.Config, from, end uint64) (float64, error) {
	gens, err := traffic.Build(cfg)
	if err != nil {
		return 0, err
	}
	var sink int
	step := func(slot uint64) {
		for _, gen := range gens {
			if a, ok := gen.Next(slot); ok {
				sink += a.Dst
			}
		}
	}
	for slot := uint64(0); slot < from; slot++ {
		step(slot)
	}
	start := time.Now()
	for slot := from; slot < end; slot++ {
		step(slot)
	}
	elapsed := time.Since(start)
	runtime.KeepAlive(sink)
	return float64(elapsed.Nanoseconds()) / float64((end-from)*uint64(len(gens))), nil
}
