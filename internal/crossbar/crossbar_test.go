package crossbar

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/units"
)

func runUniform(t *testing.T, cfg Config, load float64, warmup, measure uint64, seed uint64) (*Switch, *Metrics) {
	t.Helper()
	sw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: sw.N(), Load: load, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sw.Run(gens, warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	return sw, m
}

func TestDefaults(t *testing.T) {
	sw, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sw.N() != 64 {
		t.Errorf("default ports %d", sw.N())
	}
	if sw.Metrics().CycleTime != 51200*units.Picosecond {
		t.Errorf("default cycle %v", sw.Metrics().CycleTime)
	}
}

func TestRejectsNegativeControlRTT(t *testing.T) {
	if _, err := New(Config{ControlRTTCycles: -1}); err == nil {
		t.Error("negative control RTT accepted")
	}
}

func TestConservationAndOrder(t *testing.T) {
	cfg := Config{N: 16, Receivers: 2, Scheduler: sched.NewFLPPR(16, 0)}
	sw, m := runUniform(t, cfg, 0.8, 500, 3000, 11)
	if m.OrderViolations != 0 {
		t.Errorf("order violations: %d", m.OrderViolations)
	}
	if m.Dropped != 0 {
		t.Errorf("drops with unbounded egress: %d", m.Dropped)
	}
	// Drain and verify cell conservation.
	empty := make([]*packet.Cell, 16)
	for i := 0; i < 2000 && !sw.Drained(); i++ {
		sw.Step(empty)
	}
	if !sw.Drained() {
		t.Error("switch failed to drain")
	}
	if m.Delivered < m.Offered {
		t.Errorf("offered %d > delivered %d after drain", m.Offered, m.Delivered)
	}
}

func TestSustainedThroughput(t *testing.T) {
	// Table 1: > 95% sustained throughput near saturation.
	cfg := Config{N: 32, Receivers: 2, Scheduler: sched.NewFLPPR(32, 0)}
	_, m := runUniform(t, cfg, 0.98, 2000, 6000, 5)
	if thr := m.ThroughputPerPort(32); thr < 0.95 {
		t.Errorf("throughput at 0.98 load: %.3f, Table 1 needs > 0.95", thr)
	}
	if acc := m.AcceptanceRatio(); acc < 0.97 {
		t.Errorf("acceptance %.3f", acc)
	}
}

func TestFLPPRGrantLatencyLightLoad(t *testing.T) {
	// Fig. 6: FLPPR grants in ~1 cycle at light load.
	cfg := Config{N: 64, Receivers: 2, Scheduler: sched.NewFLPPR(64, 0)}
	_, m := runUniform(t, cfg, 0.1, 500, 3000, 7)
	if g := m.GrantLatency.Mean(); g > 1.2 {
		t.Errorf("FLPPR light-load grant latency %.2f cycles, want ~1", g)
	}
}

func TestPipelinedGrantLatencyLightLoad(t *testing.T) {
	// Fig. 6: prior art takes log2(64) = 6 cycles.
	cfg := Config{N: 64, Receivers: 1, Scheduler: sched.NewPipelinedISLIP(64, 0)}
	_, m := runUniform(t, cfg, 0.1, 500, 3000, 7)
	if g := m.GrantLatency.Mean(); math.Abs(g-6) > 0.5 {
		t.Errorf("prior-art light-load grant latency %.2f cycles, want ~6", g)
	}
}

func TestDualReceiverImprovesDelay(t *testing.T) {
	// Fig. 7: at medium-high load the dual-receiver delay stays near
	// flat while single receiver climbs.
	mk := func() sched.Scheduler { return sched.NewFLPPR(64, 0) }
	cfgS := Config{N: 64, Receivers: 1, Scheduler: mk()}
	_, mS := runUniform(t, cfgS, 0.9, 1000, 4000, 3)
	cfgD := Config{N: 64, Receivers: 2, Scheduler: mk()}
	_, mD := runUniform(t, cfgD, 0.9, 1000, 4000, 3)
	if mD.MeanLatencySlots() >= mS.MeanLatencySlots() {
		t.Errorf("dual receiver (%.2f slots) should beat single (%.2f slots) at 0.9 load",
			mD.MeanLatencySlots(), mS.MeanLatencySlots())
	}
}

func TestIdealOQIsLowerBound(t *testing.T) {
	cfgOQ := Config{N: 32, IdealOQ: true}
	_, mOQ := runUniform(t, cfgOQ, 0.9, 1000, 4000, 9)
	cfgX := Config{N: 32, Receivers: 1, Scheduler: sched.NewISLIP(32, 0)}
	_, mX := runUniform(t, cfgX, 0.9, 1000, 4000, 9)
	if mOQ.MeanLatencySlots() > mX.MeanLatencySlots()+0.2 {
		t.Errorf("ideal OQ delay %.2f should lower-bound crossbar %.2f",
			mOQ.MeanLatencySlots(), mX.MeanLatencySlots())
	}
}

func TestControlRTTAddsLatency(t *testing.T) {
	base := Config{N: 16, Receivers: 2, Scheduler: sched.NewFLPPR(16, 0)}
	_, m0 := runUniform(t, base, 0.2, 500, 2000, 13)
	far := Config{N: 16, Receivers: 2, Scheduler: sched.NewFLPPR(16, 0), ControlRTTCycles: 10}
	_, m10 := runUniform(t, far, 0.2, 500, 2000, 13)
	diff := m10.MeanLatencySlots() - m0.MeanLatencySlots()
	if math.Abs(diff-10) > 1 {
		t.Errorf("10-cycle control RTT added %.2f slots of latency, want ~10", diff)
	}
	if m10.OrderViolations != 0 {
		t.Errorf("control RTT broke ordering: %d", m10.OrderViolations)
	}
}

func TestControlRTTWithNonCommittingScheduler(t *testing.T) {
	// The engine must reserve delayed matchings for iSLIP/PIM too.
	cfg := Config{N: 8, Receivers: 1, Scheduler: sched.NewISLIP(8, 0), ControlRTTCycles: 4}
	_, m := runUniform(t, cfg, 0.6, 500, 3000, 17)
	if m.OrderViolations != 0 || m.Dropped != 0 {
		t.Errorf("violations=%d drops=%d", m.OrderViolations, m.Dropped)
	}
	if acc := m.AcceptanceRatio(); acc < 0.95 {
		t.Errorf("acceptance with delayed grants %.3f", acc)
	}
}

func TestBimodalControlPriority(t *testing.T) {
	// Control cells must see lower latency than data under load.
	cfg := Config{N: 32, Receivers: 2, Scheduler: sched.NewFLPPR(32, 0)}
	sw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindBimodal, N: 32, Load: 0.9, ControlShare: 0.1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sw.Run(gens, 1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if m.ControlLatency.N() == 0 {
		t.Fatal("no control cells delivered")
	}
	ctl := float64(m.ControlLatency.Mean())
	all := float64(m.Latency.Mean())
	if ctl > all*1.1 {
		t.Errorf("control latency %.0f ps should not exceed overall %.0f ps under strict priority", ctl, all)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		cfg := Config{N: 16, Receivers: 2, Scheduler: sched.NewFLPPR(16, 0)}
		_, m := runUniform(t, cfg, 0.7, 300, 2000, 99)
		return m.Delivered, m.MeanLatencySlots()
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Errorf("same seed diverged: %d/%.4f vs %d/%.4f", d1, l1, d2, l2)
	}
}

func TestSweepShape(t *testing.T) {
	// Delay must be monotone non-decreasing in load (coarsely).
	base := Config{N: 16, Receivers: 2}
	res, err := Sweep(base, func() sched.Scheduler { return sched.NewFLPPR(16, 0) },
		[]float64{0.2, 0.5, 0.8}, 31, 300, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if !(res[0].MeanSlots <= res[1].MeanSlots && res[1].MeanSlots <= res[2].MeanSlots) {
		t.Errorf("delay not monotone in load: %.2f %.2f %.2f",
			res[0].MeanSlots, res[1].MeanSlots, res[2].MeanSlots)
	}
	for _, r := range res {
		if math.Abs(r.Throughput-r.Load) > 0.05 {
			t.Errorf("below saturation throughput %.3f should track load %.2f", r.Throughput, r.Load)
		}
	}
}

func TestMismatchedGeneratorsError(t *testing.T) {
	sw, _ := New(Config{N: 8, Scheduler: sched.NewFLPPR(8, 0)})
	if _, err := sw.Run(make([]traffic.Generator, 3), 1, 1); err == nil {
		t.Error("mismatched generator count should return an error")
	}
}

// renderSweep reduces sweep results to a canonical byte form so the
// equivalence tests compare content bit-exactly.
func renderSweep(res []RunResult) string {
	var sb strings.Builder
	for _, r := range res {
		fmt.Fprintf(&sb, "%v %d %d %d %v %v %.17g %.17g %d %d %d\n",
			r.Load, r.Metrics.Offered, r.Metrics.Delivered, r.Metrics.Dropped,
			r.Metrics.Latency.Mean(), r.Metrics.Latency.P99(),
			r.Throughput, r.MeanSlots,
			r.Metrics.MaxVOQDepth, r.Metrics.MaxEgressDepth, r.Metrics.OrderViolations)
	}
	return sb.String()
}

// TestSweepSerialEquivalence: a concurrent sweep must be bit-identical
// to the serial sweep of the same loads and seed.
func TestSweepSerialEquivalence(t *testing.T) {
	base := Config{N: 16, Receivers: 2}
	mk := func() sched.Scheduler { return sched.NewFLPPR(16, 0) }
	loads := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.95}
	serialRes, err := SweepN(base, mk, loads, 31, 300, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	serial := renderSweep(serialRes)
	for _, workers := range []int{2, 4, 0} {
		parRes, err := SweepN(base, mk, loads, 31, 300, 2000, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par := renderSweep(parRes); par != serial {
			t.Errorf("workers=%d sweep diverged from serial:\nserial:\n%s\npar:\n%s", workers, serial, par)
		}
	}
}

// TestSweepPointsIndependent: a point's result depends only on (base
// seed, point index), not on which other points the sweep contains —
// the property the per-point derived seeds buy.
func TestSweepPointsIndependent(t *testing.T) {
	base := Config{N: 16, Receivers: 2}
	mk := func() sched.Scheduler { return sched.NewFLPPR(16, 0) }
	whole, err := Sweep(base, mk, []float64{0.2, 0.5, 0.8}, 31, 300, 2000)
	if err != nil {
		t.Fatal(err)
	}
	same, err := Sweep(base, mk, []float64{0.5, 0.5}, 31, 300, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// The same (index, load, seed) must reproduce across sweeps of
	// different shapes...
	if renderSweep(whole[1:2]) != renderSweep(same[1:2]) {
		t.Error("point (index 1, load 0.5) differs between sweeps; point seeds are not a pure function of (seed, index)")
	}
	// ...while distinct indices draw distinct traffic: two points at the
	// same load must not be sample-identical.
	if renderSweep(same[:1]) == renderSweep(same[1:]) {
		t.Error("two sweep points at the same load produced identical samples; seeds are not being derived per point")
	}
}

// TestSweepSharedSchedulerSerialFallback: a sweep over a single shared
// scheduler instance must still work (it runs serially) and keep the
// historical point-to-point state carry-over semantics.
func TestSweepSharedSchedulerSerialFallback(t *testing.T) {
	base := Config{N: 16, Receivers: 2, Scheduler: sched.NewFLPPR(16, 0)}
	res, err := Sweep(base, nil, []float64{0.2, 0.5, 0.8}, 31, 300, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		if r.Metrics.Delivered == 0 {
			t.Errorf("load %.1f delivered nothing", r.Load)
		}
	}
}

// TestReplicateMergesReplications: Replicate(R) must equal running the
// R derived-seed points by hand and merging their metrics in order.
func TestReplicateMergesReplications(t *testing.T) {
	base := Config{N: 16, Receivers: 2}
	mk := func() sched.Scheduler { return sched.NewFLPPR(16, 0) }
	const reps = 4
	tcfg := traffic.Config{Kind: traffic.KindUniform, Load: 0.7, Seed: 9}
	got, err := Replicate(base, mk, tcfg, reps, 300, 1500)
	if err != nil {
		t.Fatal(err)
	}
	want := &Metrics{}
	for r := 0; r < reps; r++ {
		rcfg := tcfg
		rcfg.Seed = sim.DeriveSeed(9, uint64(r))
		one, err := runPoint(base, mk, rcfg, 300, 1500)
		if err != nil {
			t.Fatal(err)
		}
		want.Merge(one.Metrics)
	}
	if got.Offered != want.Offered || got.Delivered != want.Delivered ||
		got.Latency.N() != want.Latency.N() ||
		got.Latency.Mean() != want.Latency.Mean() ||
		got.Latency.P99() != want.Latency.P99() ||
		got.GrantLatency.Mean() != want.GrantLatency.Mean() ||
		got.MaxVOQDepth != want.MaxVOQDepth {
		t.Errorf("Replicate differs from manual merge:\ngot  %+v\nwant %+v", got, want)
	}
	if got.MeasureSlots != reps*1500 {
		t.Errorf("MeasureSlots %d, want %d", got.MeasureSlots, reps*1500)
	}
	// Throughput normalization still works on the merged window.
	if th := got.ThroughputPerPort(16); math.Abs(th-0.7) > 0.05 {
		t.Errorf("merged throughput %.3f should track 0.7 load", th)
	}
}

// TestReplicateRejectsSharedScheduler: replications may not share one
// scheduler instance.
func TestReplicateRejectsSharedScheduler(t *testing.T) {
	base := Config{N: 8, Receivers: 2, Scheduler: sched.NewFLPPR(8, 0)}
	tcfg := traffic.Config{Kind: traffic.KindUniform, Load: 0.5, Seed: 1}
	if _, err := Replicate(base, nil, tcfg, 2, 10, 10); err == nil {
		t.Error("shared-scheduler replication should be rejected")
	}
	if _, err := Replicate(Config{N: 8}, nil, tcfg, 0, 10, 10); err == nil {
		t.Error("0 replications should be rejected")
	}
}
