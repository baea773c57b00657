package fabric

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/traffic"
)

// benchFabricConfig is BenchmarkFabric2048's configuration: the paper's
// 2048-port, 3-stage flagship — the run ROADMAP item 1 wanted off the
// single core.
func benchFabricConfig(shards int) Config {
	return Config{
		Hosts:          2048,
		Radix:          64,
		Receivers:      2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(64, 0) },
		LinkDelaySlots: 5,
		Shards:         shards,
	}
}

// BenchmarkFabric2048 measures whole-fabric slots/sec through Run at the
// flagship scale for shard counts 1/2/4/8. One benchmark iteration is
// one slot (amortized over a fixed-size run so window barriers are
// included at their true frequency). On a multi-core host more shards
// multiply slots/sec; on a single core they show the barrier overhead.
// Load 0.75 (the repository benchmark's fabric_busy load) is below the
// flagship's ~0.825 saturation, so queues reach a steady state and
// ns/op and allocs/op do not drift with b.N; above saturation the
// backlog grows every slot.
func BenchmarkFabric2048(b *testing.B) {
	const slotsPerRun = 64
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			f, err := New(benchFabricConfig(shards))
			if err != nil {
				b.Fatal(err)
			}
			gens, err := traffic.Build(traffic.Config{
				Kind: traffic.KindUniform, N: 2048, Load: 0.75, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			// Warm-up-only windows keep measurement off: the benchmark
			// isolates the kernel from statistics retention.
			run := func(n uint64) {
				if _, err := f.Run(gens, n, 0); err != nil {
					b.Fatal(err)
				}
			}
			run(4 * slotsPerRun) // warm queues, rings, and cell pool
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += slotsPerRun {
				n := slotsPerRun
				if rest := b.N - done; rest < n {
					n = rest
				}
				run(uint64(n))
			}
		})
	}
}

// BenchmarkFabricStepSmall isolates the per-slot cost of Run, the one
// driver, at the 32-host test scale on one shard: one-slot calls, so
// every slot is its own window barrier. Load 0.7 is below this fabric's
// saturation, so queues stay bounded and ns/op does not drift with b.N
// (at 0.9 the backlog grows without bound); it is the load
// TestStepZeroAllocsSteadyState pins at 0 allocs.
func BenchmarkFabricStepSmall(b *testing.B) {
	f, err := New(Config{
		Hosts: 32, Radix: 8, Receivers: 2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(8, 0) },
		LinkDelaySlots: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: 32, Load: 0.7, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Run(gens, 512, 0); err != nil { // steady state, measurement off
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Run(gens, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}
