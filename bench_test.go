// Package repro's top-level benchmarks regenerate the paper's evaluation
// at benchmark granularity: each BenchmarkFigN/BenchmarkTableN times the
// steady-state simulation that produces that figure (cost per simulated
// packet cycle) and reports the figure's headline metric via
// b.ReportMetric, so `go test -bench=.` both exercises the harness and
// prints the reproduced numbers. Full-fidelity series come from
// `go run ./cmd/experiments`.
package repro

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/fec"
	"repro/internal/link"
	"repro/internal/optics"
	"repro/internal/packet"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/units"
)

// stepBench builds a crossbar switch plus generators and times Step; it
// returns the switch's metrics.
func stepBench(b *testing.B, cfg crossbar.Config, load float64) *crossbar.Metrics {
	b.Helper()
	sw, err := crossbar.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: sw.N(), Load: load, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// A zero-length Run steps nothing; it hands back the metrics the
	// Step loop below fills.
	m, err := sw.Run(gens, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	alloc := packet.NewAllocator()
	arrivals := make([]*packet.Cell, sw.N())
	step := func(slot uint64) {
		now := units.Time(slot) * m.CycleTime
		for i, g := range gens {
			arrivals[i] = nil
			if a, ok := g.Next(slot); ok {
				arrivals[i] = alloc.New(i, a.Dst, packet.Data, now)
			}
		}
		sw.Step(arrivals)
	}
	// Warm up out of the timed region.
	const warm = 500
	for slot := uint64(0); slot < warm; slot++ {
		step(slot)
	}
	sw.StartMeasurement(uint64(b.N))
	b.ResetTimer()
	for slot := uint64(warm); slot < warm+uint64(b.N); slot++ {
		step(slot)
	}
	b.StopTimer()
	return m
}

// BenchmarkTable1Requirements: the ASIC-target switch near saturation;
// reports Table-1 compliance metrics.
func BenchmarkTable1Requirements(b *testing.B) {
	cfg := crossbar.Config{
		N: 64, Receivers: 2,
		Format: core.ASICTargetFormat(),
	}
	m := stepBench(b, cfg, 0.99)
	b.ReportMetric(m.ThroughputPerPort(64), "thrpt/port")
	b.ReportMetric(core.ASICTargetFormat().EffectiveUserBandwidthFraction(), "eff-bw")
	b.ReportMetric(float64(m.OrderViolations), "ooo")
	b.ReportMetric(float64(m.Dropped), "drops")
}

// BenchmarkFig1SingleStageLatency: the analytic 2xRTT sweep.
func BenchmarkFig1SingleStageLatency(b *testing.B) {
	cell := 51200 * units.Picosecond
	var total units.Time
	for i := 0; i < b.N; i++ {
		for d := 10.0; d <= 100; d += 10 {
			total += core.SingleStageCentralLatency(d, 100*units.Nanosecond, cell).Total
		}
	}
	at50 := core.SingleStageCentralLatency(50, 100*units.Nanosecond, cell)
	b.ReportMetric(at50.Total.Nanoseconds(), "ns-at-50m")
	b.ReportMetric(core.FabricLatencyBudget.Nanoseconds(), "budget-ns")
	_ = total
}

// BenchmarkFig2BufferPlacement: option-3 fat-tree steady state; reports
// the OEO cost ratio of option 1 over option 3.
func BenchmarkFig2BufferPlacement(b *testing.B) {
	benchFabric(b, fabric.Config{
		Network: mustXGFT(32, 8), Receivers: 2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 3,
	}, traffic.Config{Kind: traffic.KindUniform, N: 32, Load: 0.6, Seed: 1},
		func(m *fabric.Metrics) {
			b.ReportMetric(2.0, "oeo-opt1/opt3")
			b.ReportMetric(float64(m.LatencySlots.Mean()), "opt3-delay-slots")
		})
}

// benchFabric warms a fabric up, then times its Run driver over b.N
// measured slots.
func benchFabric(b *testing.B, fcfg fabric.Config, tcfg traffic.Config, report func(*fabric.Metrics)) {
	b.Helper()
	f, err := fabric.New(fcfg)
	if err != nil {
		b.Fatal(err)
	}
	gens, err := traffic.Build(tcfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Run(gens, 300, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	m, err := f.Run(gens, 0, uint64(b.N))
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if report != nil {
		report(m)
	}
}

// BenchmarkFig4FlowControl: hotspot overload on the credit-protected
// fat tree; losslessness is the reported metric.
func BenchmarkFig4FlowControl(b *testing.B) {
	benchFabric(b, fabric.Config{
		Network: mustXGFT(32, 8), Receivers: 2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 4,
	}, traffic.Config{Kind: traffic.KindHotspot, N: 32, Load: 0.85, HotPort: 0, HotFraction: 0.5, Seed: 1},
		func(m *fabric.Metrics) {
			b.ReportMetric(float64(m.Dropped), "drops")
			b.ReportMetric(float64(m.OrderViolations), "ooo")
			b.ReportMetric(float64(m.MaxInterInputDepth), "max-buf-cells")
		})
}

// BenchmarkFig6FLPPRLatency / BenchmarkFig6PriorArtLatency: grant
// latency at light load for the two arbiters of Fig. 6.
func BenchmarkFig6FLPPRLatency(b *testing.B) {
	m := stepBench(b, crossbar.Config{N: 64, Receivers: 2}, 0.1)
	b.ReportMetric(m.GrantLatency.Mean(), "grant-cycles")
}

func BenchmarkFig6PriorArtLatency(b *testing.B) {
	m := stepBench(b, crossbar.Config{N: 64, Receivers: 1, NewScheduler: func() sched.Scheduler { return sched.NewPipelinedISLIP(64, 0) }}, 0.1)
	b.ReportMetric(m.GrantLatency.Mean(), "grant-cycles")
}

// BenchmarkFig7 benches the three delay-vs-throughput curves at 0.9 load.
func BenchmarkFig7DualReceiver(b *testing.B) {
	m := stepBench(b, crossbar.Config{N: 64, Receivers: 2}, 0.9)
	b.ReportMetric(m.MeanLatencySlots(), "delay-cycles")
}

func BenchmarkFig7SingleReceiver(b *testing.B) {
	m := stepBench(b, crossbar.Config{N: 64, Receivers: 1}, 0.9)
	b.ReportMetric(m.MeanLatencySlots(), "delay-cycles")
}

func BenchmarkFig7IdealOQ(b *testing.B) {
	m := stepBench(b, crossbar.Config{N: 64, IdealOQ: true}, 0.9)
	b.ReportMetric(m.MeanLatencySlots(), "delay-cycles")
}

// BenchmarkFig10OSNRPenalty: the XGM model sweep; reports the DPSK
// loading improvement.
func BenchmarkFig10OSNRPenalty(b *testing.B) {
	m := optics.NewXGMModel()
	var acc float64
	for i := 0; i < b.N; i++ {
		for pin := units.DBm(0); pin <= 20; pin++ {
			acc += float64(m.Penalty(optics.NRZ, optics.BER1e10, pin))
			acc += float64(m.Penalty(optics.DPSK, optics.BER1e10, pin))
		}
	}
	b.ReportMetric(float64(m.DPSKImprovement(optics.BER1e10, 1)), "dpsk-gain-dB")
	_ = acc
}

// BenchmarkSec6CStageCount: the fabric planning arithmetic.
func BenchmarkSec6CStageCount(b *testing.B) {
	var stages int
	for i := 0; i < b.N; i++ {
		for _, radix := range []int{64, 32, 12, 8} {
			p, err := power.PlanFabric(2048, radix, units.IB12xQDRPortRate)
			if err != nil {
				b.Fatal(err)
			}
			stages += p.Stages
		}
	}
	osm, _ := power.PlanFabric(2048, 64, units.IB12xQDRPortRate)
	elec, _ := power.PlanFabric(2048, 32, units.IB12xQDRPortRate)
	comm, _ := power.PlanFabric(2048, 8, units.IB12xQDRPortRate)
	b.ReportMetric(float64(osm.Stages), "osmosis-stages")
	b.ReportMetric(float64(elec.Stages), "electronic-stages")
	b.ReportMetric(float64(comm.Stages), "commodity-stages")
	_ = stages
}

// BenchmarkPowerScaling: CMOS-vs-optical power model evaluation.
func BenchmarkPowerScaling(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		for _, g := range []float64{10, 20, 40, 80, 160} {
			rate := units.Bandwidth(g * 1e9)
			acc += power.DefaultCMOS(64, rate).Power()
			acc += power.DefaultOptical(64, 2, 8, rate).Power(float64(rate) / 2048)
		}
	}
	c := power.DefaultCMOS(64, units.OSMOSISPortRate)
	o := power.DefaultOptical(64, 2, 8, units.OSMOSISPortRate)
	b.ReportMetric(c.Power(), "cmos-w")
	b.ReportMetric(o.Power(19.5e6), "optical-w")
	_ = acc
}

// BenchmarkSec7Scaling: the §VII scale-point arithmetic.
func BenchmarkSec7Scaling(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		p, err := core.NewScalePoint(16, 16, 200*units.GigabitPerSecond)
		if err != nil {
			b.Fatal(err)
		}
		acc += p.Aggregate.TbPerSecond()
	}
	out, err := core.NewScalePoint(16, 16, 200*units.GigabitPerSecond)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(out.Aggregate.TbPerSecond(), "aggregate-tbps")
	b.ReportMetric(float64(out.FLPPRSpeedupNeeded(4)), "flppr-k")
	_ = acc
}

// BenchmarkStoreAndForward: the §IV packet-store arithmetic.
func BenchmarkStoreAndForward(b *testing.B) {
	var acc units.Time
	for i := 0; i < b.N; i++ {
		for _, bytes := range []int{64, 128, 256, 512, 1024} {
			acc += core.StoreAndForwardPenalty(bytes, units.IB12xQDRPortRate)
		}
	}
	b.ReportMetric(core.StoreAndForwardPenalty(64, units.IB12xQDRPortRate).Nanoseconds(), "ns-64B")
	_ = acc
}

// BenchmarkGuardTimeFEC: FEC encode+decode round trip (the per-cell
// datapath work) with the error-budget headline metrics.
func BenchmarkGuardTimeFEC(b *testing.B) {
	rng := sim.NewRNG(1)
	data := make([]byte, fec.DataSymbols)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	b.SetBytes(int64(fec.DataSymbols))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block, err := fec.Encode(data)
		if err != nil {
			b.Fatal(err)
		}
		block[i%fec.BlockSymbols] ^= 1 << (i % 8)
		if _, _, err := fec.Decode(block); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(math.Log10(fec.UserBER(1e-10)), "log10-user-ber")
	b.ReportMetric(math.Log10(fec.ResidualBER(1e-10)), "log10-resid-ber")
}

// BenchmarkSec6DBvN: the load-balanced BvN switch step rate with its
// N/2 unloaded latency headline.
func BenchmarkSec6DBvN(b *testing.B) {
	const n = 64
	bvn := sched.NewBvN(n)
	var total, count float64
	bvn.Sink = func(_ *packet.Cell, lat uint64) { total += float64(lat); count++ }
	rng := sim.NewRNG(1)
	alloc := packet.NewAllocator()
	arrivals := make([]*packet.Cell, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range arrivals {
			arrivals[j] = nil
			if rng.Bernoulli(0.05) {
				arrivals[j] = alloc.New(j, rng.Intn(n), packet.Data, 0)
			}
		}
		bvn.Step(arrivals)
	}
	b.StopTimer()
	if count > 0 {
		b.ReportMetric(total/count, "latency-slots")
		b.ReportMetric(float64(n)/2, "n-over-2")
	}
}

// --- Ablation benches (DESIGN.md §5) ---

func BenchmarkAblationFLPPRK1(b *testing.B) { benchFLPPRK(b, 1) }
func BenchmarkAblationFLPPRK2(b *testing.B) { benchFLPPRK(b, 2) }
func BenchmarkAblationFLPPRK6(b *testing.B) { benchFLPPRK(b, 6) }

func benchFLPPRK(b *testing.B, k int) {
	m := stepBench(b, crossbar.Config{N: 64, Receivers: 2, NewScheduler: func() sched.Scheduler { return sched.NewFLPPR(64, k) }}, 0.95)
	b.ReportMetric(m.ThroughputPerPort(64), "thrpt/port")
	b.ReportMetric(m.MeanLatencySlots(), "delay-cycles")
}

func BenchmarkAblationISLIP1Iter(b *testing.B) {
	m := stepBench(b, crossbar.Config{N: 64, Receivers: 1, NewScheduler: func() sched.Scheduler { return sched.NewISLIP(64, 1) }}, 0.95)
	b.ReportMetric(m.ThroughputPerPort(64), "thrpt/port")
}

func BenchmarkAblationGuardTime(b *testing.B) {
	// Pure format arithmetic: user bandwidth across guard times.
	var acc float64
	for i := 0; i < b.N; i++ {
		f := packet.OSMOSISFormat()
		f.GuardTime = units.Time(i%20+1) * units.Nanosecond
		acc += f.EffectiveUserBandwidthFraction()
	}
	demo := packet.OSMOSISFormat()
	b.ReportMetric(demo.EffectiveUserBandwidthFraction(), "eff-bw-demo")
	subNS := packet.OSMOSISFormat()
	subNS.GuardTime = 500 * units.Picosecond
	b.ReportMetric(subNS.EffectiveUserBandwidthFraction(), "eff-bw-subns")
	_ = acc
}

// --- Parallel execution layer (internal/parallel) ---

// benchQuickSuite times the full quick-mode experiment suite — exactly
// what `cmd/experiments -quick -par N` runs — at the given parallelism.
// The serial/parallel pair is the wall-clock comparison; the repository
// benchmark's paper_quick workload (BENCHMARK.json) times the same suite
// end to end.
func benchQuickSuite(b *testing.B, workers int) {
	all := experiments.All()
	cfg := experiments.RunConfig{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range experiments.RunMany(all, cfg, workers) {
			if o.Err != nil {
				b.Fatalf("%s: %v", o.Experiment.ID, o.Err)
			}
		}
	}
}

func BenchmarkQuickSuiteSerial(b *testing.B) { benchQuickSuite(b, 1) }
func BenchmarkQuickSuiteParallel(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	benchQuickSuite(b, 0)
}

// BenchmarkSweepSerial/Parallel: one Fig.-7-shaped 8-point load sweep,
// serial vs pooled.
func benchSweep(b *testing.B, workers int) {
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 0.95}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crossbar.SweepN(crossbar.Config{N: 16, Receivers: 2}, loads, 1, 300, 2000, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkReplicate8: eight merged replications of one 64-port config.
func BenchmarkReplicate8(b *testing.B) {
	tcfg := traffic.Config{Kind: traffic.KindUniform, Load: 0.9, Seed: 1}
	var m *crossbar.Metrics
	for i := 0; i < b.N; i++ {
		var err error
		m, err = crossbar.Replicate(crossbar.Config{N: 64, Receivers: 2}, tcfg, 8, 200, 1000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Latency.N()), "merged-samples")
	b.ReportMetric(m.ThroughputPerPort(64), "thrpt/port")
}

// --- Microbenchmarks of the hot paths ---
//
// The scheduler TickInto benchmarks live in internal/sched
// (BenchmarkFLPPRTick and siblings).

func BenchmarkFECEncode(b *testing.B) {
	data := make([]byte, fec.DataSymbols)
	b.SetBytes(fec.DataSymbols)
	for i := 0; i < b.N; i++ {
		if _, err := fec.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChannelCorrupt(b *testing.B) {
	c := link.NewChannel(0, units.OSMOSISPortRate, 1e-6, 1)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		c.Corrupt(buf)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := sim.NewRNG(1)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += r.Uint64()
	}
	_ = acc
}

func BenchmarkFabric128Step(b *testing.B) {
	benchFabric(b, fabric.Config{
		Network: mustXGFT(128, 16), Receivers: 2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(16, 0) },
		LinkDelaySlots: 5,
	}, traffic.Config{Kind: traffic.KindUniform, N: 128, Load: 0.7, Seed: 1}, nil)
}

// BenchmarkContainerSwitchStep: the burst-switching baseline of §II.
func BenchmarkContainerSwitchStep(b *testing.B) {
	const n = 16
	cs := sched.NewContainerSwitch(n, 8)
	var total, count float64
	cs.Sink = func(_ *packet.Cell, lat uint64) { total += float64(lat); count++ }
	rng := sim.NewRNG(1)
	alloc := packet.NewAllocator()
	arrivals := make([]*packet.Cell, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range arrivals {
			arrivals[j] = nil
			if rng.Bernoulli(0.05) {
				arrivals[j] = alloc.New(j, rng.Intn(n), packet.Data, 0)
			}
		}
		cs.Step(arrivals)
	}
	b.StopTimer()
	if count > 0 {
		b.ReportMetric(total/count, "latency-slots")
	}
}

// BenchmarkXGFTFiveStageStep: the 5-stage (§VI.C electronic-shape)
// fabric steady state.
func BenchmarkXGFTFiveStageStep(b *testing.B) {
	x, err := fabric.NewXGFT(64, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchFabric(b, fabric.Config{
		Network: x, Receivers: 2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 2,
	}, traffic.Config{Kind: traffic.KindUniform, N: 64, Load: 0.5, Seed: 1},
		func(m *fabric.Metrics) {
			b.ReportMetric(float64(m.LatencySlots.Mean()), "latency-slots")
		})
}
