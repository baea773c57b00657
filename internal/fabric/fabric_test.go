package fabric

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/traffic"
)

// smallFabric builds a 32-host, 8-port-switch, 3-stage fabric — small
// enough to simulate quickly, structurally identical to the 2048-port
// target.
func smallFabric(t *testing.T, mutate func(*Config)) *Fabric {
	t.Helper()
	cfg := Config{
		Hosts:          32,
		Radix:          8,
		Receivers:      2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 3,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func runFabric(t *testing.T, f *Fabric, kind traffic.Kind, load float64, warmup, measure uint64) *Metrics {
	t.Helper()
	gens, err := traffic.Build(traffic.Config{Kind: kind, N: 32, Load: load, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Run(gens, warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFabricValidation(t *testing.T) {
	if _, err := New(Config{Hosts: 0}); err == nil {
		t.Error("zero hosts accepted")
	}
	if _, err := New(Config{Hosts: 4, LinkDelaySlots: -1}); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := New(Config{Hosts: 8, Radix: 7}); err == nil {
		t.Error("odd radix accepted")
	}
	// Past the two-level capacity radix²/2 the default grows a deeper
	// tree: 40 hosts on radix 8 need 3 levels, 5 stages.
	f, err := New(Config{Hosts: 40, Radix: 8})
	if err != nil {
		t.Fatal(err)
	}
	if x, ok := f.Network().(XGFT); !ok || x.Levels != 3 || x.StageCount() != 5 {
		t.Errorf("40 hosts on radix 8 built %+v, want a 3-level, 5-stage XGFT", f.Network())
	}
}

func TestFabricDeliversAndKeepsOrder(t *testing.T) {
	f := smallFabric(t, nil)
	m := runFabric(t, f, traffic.KindUniform, 0.6, 500, 3000)
	if m.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if m.OrderViolations != 0 {
		t.Errorf("order violations: %d (Table 1 requires zero)", m.OrderViolations)
	}
	if m.Dropped != 0 {
		t.Errorf("drops: %d (flow control must make the fabric lossless)", m.Dropped)
	}
}

func TestFabricLossless(t *testing.T) {
	// Conservation: everything injected is delivered after draining.
	f := smallFabric(t, nil)
	m := runFabric(t, f, traffic.KindUniform, 0.8, 0, 4000)
	drained, err := f.Drain(20000)
	if err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("fabric failed to drain")
	}
	if m.Delivered != m.Offered {
		t.Errorf("offered %d != delivered %d", m.Offered, m.Delivered)
	}
}

func TestFabricLosslessUnderHotspotOverload(t *testing.T) {
	// §IV.B: flow control must hold even under a 4x-overloaded output.
	f := smallFabric(t, nil)
	gens, err := traffic.Build(traffic.Config{
		Kind: traffic.KindHotspot, N: 32, Load: 0.9,
		HotPort: 0, HotFraction: 0.5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Run(gens, 0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	drained, err := f.Drain(400000)
	if err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("overloaded fabric failed to drain")
	}
	if m.Delivered != m.Offered {
		t.Errorf("offered %d != delivered %d under overload", m.Offered, m.Delivered)
	}
	if m.OrderViolations != 0 {
		t.Errorf("order violations under overload: %d", m.OrderViolations)
	}
	// The bounded inter-switch buffers must never exceed their capacity
	// (this is the lossless-by-credit proof).
	if m.MaxInterInputDepth > f.cfg.InputCapacity {
		t.Errorf("input buffer reached %d cells, capacity %d — credit protocol violated",
			m.MaxInterInputDepth, f.cfg.InputCapacity)
	}
}

func TestFabricThroughputUniform(t *testing.T) {
	f := smallFabric(t, nil)
	m := runFabric(t, f, traffic.KindUniform, 0.85, 1000, 5000)
	thr := m.ThroughputPerHost(32)
	if thr < 0.8 {
		t.Errorf("throughput %.3f at 0.85 load", thr)
	}
}

func TestFabricHopCounts(t *testing.T) {
	f := smallFabric(t, nil)
	m := runFabric(t, f, traffic.KindUniform, 0.3, 200, 2000)
	// With 8 hosts per... arity 4: hosts on same leaf (3 of 31 partners)
	// take 1 hop; others take 3.
	if m.HopHistogram[1] == 0 || m.HopHistogram[3] == 0 {
		t.Errorf("hop histogram %v, want 1- and 3-hop populations", m.HopHistogram)
	}
	if m.HopHistogram[2] != 0 {
		t.Errorf("2-hop paths should not exist in a fat tree: %v", m.HopHistogram)
	}
	// Latency floor: a 3-hop path pays 2 cable delays each way... at
	// least 2 links * 3 slots plus 3 switch traversals.
	if mean := float64(m.LatencySlots.Mean()); mean < 3 {
		t.Errorf("mean latency %.1f slots implausibly low", mean)
	}
}

func TestFabricSingleSwitchDegenerate(t *testing.T) {
	f, err := New(Config{
		Hosts: 8, Radix: 8, Receivers: 2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: 8, Load: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Run(gens, 200, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if m.OrderViolations != 0 || m.Dropped != 0 {
		t.Errorf("single-switch fabric: violations=%d drops=%d", m.OrderViolations, m.Dropped)
	}
	for h := range m.HopHistogram {
		if h != 1 {
			t.Errorf("single-switch fabric produced %d-hop paths", h)
		}
	}
}

func TestOption1EgressBuffersAlsoWork(t *testing.T) {
	// Fig. 2 option 1: in- and output buffers per stage. Must stay
	// lossless and ordered; latency differs (see bench).
	f := smallFabric(t, func(c *Config) { c.EgressBuffered = true })
	m := runFabric(t, f, traffic.KindUniform, 0.7, 0, 3000)
	if m.OrderViolations != 0 || m.Dropped != 0 {
		t.Errorf("option 1: violations=%d drops=%d", m.OrderViolations, m.Dropped)
	}
	drained, err := f.Drain(20000)
	if err != nil || !drained {
		t.Fatalf("option 1 failed to drain: %v", err)
	}
	if m.Delivered != m.Offered {
		t.Errorf("option 1: offered %d delivered %d", m.Offered, m.Delivered)
	}
}

func TestFabricBurstyTraffic(t *testing.T) {
	f := smallFabric(t, nil)
	m := runFabric(t, f, traffic.KindBursty, 0.6, 500, 4000)
	if m.OrderViolations != 0 || m.Dropped != 0 {
		t.Errorf("bursty: violations=%d drops=%d", m.OrderViolations, m.Dropped)
	}
}

func TestFabricDeterminism(t *testing.T) {
	run := func() (uint64, int64) {
		f := smallFabric(t, nil)
		m := runFabric(t, f, traffic.KindUniform, 0.7, 300, 2000)
		return m.Delivered, int64(m.LatencySlots.Mean())
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Errorf("same seed diverged: %d/%d vs %d/%d", d1, l1, d2, l2)
	}
}

func TestFabric2048PortsBrief(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-port fabric is slow")
	}
	// The paper's target scale, briefly: 2048 hosts, 64-port switches.
	cfg := Config{
		Hosts:          2048,
		Radix:          64,
		Receivers:      2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(64, 0) },
		LinkDelaySlots: 5, // ~50 m at 51.2 ns cycles
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: 2048, Load: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Run(gens, 50, 300)
	if err != nil {
		t.Fatal(err)
	}
	if m.Delivered == 0 {
		t.Fatal("nothing delivered at scale")
	}
	if m.OrderViolations != 0 || m.Dropped != 0 {
		t.Errorf("at scale: violations=%d drops=%d", m.OrderViolations, m.Dropped)
	}
}

func TestMetricsScaling(t *testing.T) {
	f := smallFabric(t, nil)
	m := runFabric(t, f, traffic.KindUniform, 0.5, 200, 1000)
	if m.MeanLatency() <= 0 {
		t.Error("mean latency not scaled to wall time")
	}
	if m.ThroughputPerHost(0) != 0 {
		t.Error("degenerate throughput should be 0")
	}
}

func TestRunValidatesGeneratorCount(t *testing.T) {
	f := smallFabric(t, nil)
	if _, err := f.Run(make([]traffic.Generator, 3), 1, 1); err == nil {
		t.Error("mismatched generators accepted")
	}
}
