package crossbar

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// buildFaulted builds a switch with a compiled fault schedule attached.
func buildFaulted(t *testing.T, cfg Config, spec string, seed uint64) *Switch {
	t.Helper()
	sw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fault.Compile(fs, fault.Dims{Ports: sw.N(), Receivers: cfg.Receivers}, seed)
	if err != nil {
		t.Fatal(err)
	}
	sw.AttachFaults(fault.NewInjector(sched))
	return sw
}

// TestReceiverLossMatchesSingleReceiverConfig is the satellite claim:
// a dual-receiver switch that loses one receiver on every egress is
// arbitrated and measured exactly like a single-receiver switch — the
// degraded fabric reproduces the Fig.-7 single-receiver curve, not some
// third behaviour.
func TestReceiverLossMatchesSingleReceiverConfig(t *testing.T) {
	const n, seed = 32, 3
	degraded, err := New(Config{N: n, Receivers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < n; e++ {
		if err := degraded.SetReceiver(e, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: n, Load: 0.95, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	mDeg, err := degraded.Run(gens, 1000, 4000)
	if err != nil {
		t.Fatal(err)
	}

	single, mSingle := runUniform(t, Config{N: n, Receivers: 1}, 0.95, 1000, 4000, seed)
	_ = single
	if mDeg.Offered != mSingle.Offered || mDeg.Delivered != mSingle.Delivered {
		t.Errorf("degraded dual (off=%d del=%d) != single receiver (off=%d del=%d)",
			mDeg.Offered, mDeg.Delivered, mSingle.Offered, mSingle.Delivered)
	}
	if mDeg.Latency.Mean() != mSingle.Latency.Mean() || mDeg.Latency.P99() != mSingle.Latency.P99() {
		t.Errorf("degraded latency (mean=%v p99=%v) != single (mean=%v p99=%v)",
			mDeg.Latency.Mean(), mDeg.Latency.P99(), mSingle.Latency.Mean(), mSingle.Latency.P99())
	}
	if mDeg.GrantLatency.Mean() != mSingle.GrantLatency.Mean() {
		t.Errorf("degraded grant latency %.4f != single %.4f",
			mDeg.GrantLatency.Mean(), mSingle.GrantLatency.Mean())
	}

	// And the degraded switch must deliver less than a healthy dual one
	// at the same saturating load (the Fig.-7 gap).
	_, mDual := runUniform(t, Config{N: n, Receivers: 2}, 0.95, 1000, 4000, seed)
	if mDual.MeanLatencySlots() >= mDeg.MeanLatencySlots() {
		t.Errorf("healthy dual latency %.2f should beat degraded %.2f at 0.95 load",
			mDual.MeanLatencySlots(), mDeg.MeanLatencySlots())
	}
}

// TestReceiverTieBreakDeterministic: at r=2 and load 0.9 some egress
// takes two inputs in one slot, and the whole dual-receiver run is
// reproducible from the seed.
func TestReceiverTieBreakDeterministic(t *testing.T) {
	const n = 8
	run := func() (*Switch, string, int) {
		doubled := 0
		perOut := make([]int, n)
		cfg := Config{N: n, Receivers: 2,
			OnMatch: func(_ uint64, m sched.Matching) {
				clear(perOut)
				for _, out := range m.Out {
					if out < 0 {
						continue
					}
					if perOut[out]++; perOut[out] == 2 {
						doubled++
					}
				}
			}}
		sw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: n, Load: 0.9, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sw.Run(gens, 500, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if m.Delivered == 0 {
			t.Fatal("no cells crossed the crossbar")
		}
		return sw, goldenFingerprint(m, nil), doubled
	}
	sw, first, doubled := run()
	if doubled == 0 {
		t.Error("no egress took two inputs in one slot at 0.9 load")
	}
	if sw.ReceiversDown() != 0 {
		t.Errorf("healthy switch reports %d receivers down", sw.ReceiversDown())
	}
	if _, again, doubledAgain := run(); again != first || doubledAgain != doubled {
		t.Errorf("dual-receiver run not reproducible from the seed:\n  %s (%d doubled)\n  %s (%d doubled)",
			first, doubled, again, doubledAgain)
	}
}

// TestMidRunReceiverFaultsLosslessDegradation: receivers failing mid-run
// slow the fabric but never lose or reorder a cell; with a control RTT
// the in-flight over-grants are refused and re-arbitrated.
func TestMidRunReceiverFaultsLosslessDegradation(t *testing.T) {
	const n = 16
	cfg := Config{N: n, Receivers: 2, ControlRTTCycles: 4}
	// Fail the redundant receiver of every egress mid-measurement.
	var clauses []string
	for e := 0; e < n; e++ {
		clauses = append(clauses, fmt.Sprintf("rx:%d@3000", e))
	}
	spec := strings.Join(clauses, ",")
	sw := buildFaulted(t, cfg, spec, 5)
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: n, Load: 0.95, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sw.Run(gens, 500, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if sw.ReceiversDown() != n {
		t.Fatalf("receivers down = %d, want %d", sw.ReceiversDown(), n)
	}
	if m.OrderViolations != 0 || m.Dropped != 0 {
		t.Errorf("faulted run lost ordering or cells: viol=%d dropped=%d", m.OrderViolations, m.Dropped)
	}
	// Drain: every offered cell must eventually deliver.
	empty := make([]*packet.Cell, n)
	for i := 0; i < 20000 && !sw.Drained(); i++ {
		sw.Step(empty)
	}
	if !sw.Drained() {
		t.Fatal("faulted switch failed to drain")
	}
	if m.Delivered < m.Offered {
		t.Errorf("offered %d > delivered %d after drain: cells lost", m.Offered, m.Delivered)
	}
	// Degradation must be visible against an identical healthy run.
	healthy, _ := New(cfg)
	hGens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: n, Load: 0.95, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hm, err := healthy.Run(hGens, 500, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanLatencySlots() <= hm.MeanLatencySlots() {
		t.Errorf("faulted latency %.2f should exceed healthy %.2f", m.MeanLatencySlots(), hm.MeanLatencySlots())
	}
}

// TestSchedStallFreezesArbiter: a stall stops new grants for its length
// without losing anything.
func TestSchedStallFreezesArbiter(t *testing.T) {
	const n = 8
	cfg := Config{N: n, Receivers: 2}
	sw := buildFaulted(t, cfg, "stall:200@2000", 1)
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: n, Load: 0.6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sw.Run(gens, 500, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Stalls != 200 {
		t.Errorf("stalled %d slots, want 200", sw.Stalls)
	}
	empty := make([]*packet.Cell, n)
	for i := 0; i < 10000 && !sw.Drained(); i++ {
		sw.Step(empty)
	}
	if m.Delivered < m.Offered {
		t.Errorf("stall lost cells: offered %d delivered %d", m.Offered, m.Delivered)
	}
	_, hm := runUniform(t, cfg, 0.6, 500, 4000, 9)
	if m.Latency.P99() <= hm.Latency.P99() {
		t.Errorf("stalled p99 %v should exceed healthy %v", m.Latency.P99(), hm.Latency.P99())
	}
}

// TestCutEpochSegmentsMetrics: epochs tile the measurement window and
// their counters sum to the run totals.
func TestCutEpochSegmentsMetrics(t *testing.T) {
	const n = 8
	sw, err := New(Config{N: n, Receivers: 2})
	if err != nil {
		t.Fatal(err)
	}
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: n, Load: 0.7, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([]*packet.Cell, n)
	step := func() {
		now := sw.now()
		for i, g := range gens {
			arrivals[i] = nil
			if a, ok := g.Next(sw.Slot()); ok {
				arrivals[i] = sw.alloc.New(i, a.Dst, packet.Data, now)
			}
		}
		sw.Step(arrivals)
	}
	const warmup, measure, cut = 300, 2000, 1200
	for sw.Slot() < warmup {
		step()
	}
	sw.StartMeasurement(measure)
	for sw.Slot() < warmup+cut {
		step()
	}
	e1 := sw.CutEpoch()
	for sw.Slot() < warmup+measure {
		step()
	}
	e2 := sw.CutEpoch()
	m := sw.Metrics()
	if e1.FromSlot != warmup || e1.ToSlot != warmup+cut || e2.FromSlot != warmup+cut || e2.ToSlot != warmup+measure {
		t.Fatalf("epoch bounds wrong: %+v / %+v", e1, e2)
	}
	if e1.Offered+e2.Offered != m.Offered || e1.Delivered+e2.Delivered != m.Delivered {
		t.Errorf("epoch sums (off %d+%d, del %d+%d) != totals (off %d, del %d)",
			e1.Offered, e2.Offered, e1.Delivered, e2.Delivered, m.Offered, m.Delivered)
	}
	if e1.Throughput(n) <= 0 || e2.Throughput(n) <= 0 {
		t.Errorf("epoch throughput not positive: %.3f / %.3f", e1.Throughput(n), e2.Throughput(n))
	}
	if e1.P99Slots <= 0 || e1.MeanSlots <= 0 {
		t.Errorf("epoch latency empty: %+v", e1)
	}
}
