package crossbar

import (
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// BenchmarkSwitchStep measures one full engine cycle — traffic
// generation, VOQ push, arbitration, matching execution, egress drain —
// at 0.9 offered load, the regime the Fig. 7 sweeps spend their time in.
// Measurement is off, so the numbers isolate the simulation kernel from
// statistics retention.
func BenchmarkSwitchStep(b *testing.B) {
	for _, bc := range []struct {
		name string
		mk   func(n int) sched.Scheduler
	}{
		{"flppr", func(n int) sched.Scheduler { return sched.NewFLPPR(n, 0) }},
		{"islip", func(n int) sched.Scheduler { return sched.NewISLIP(n, 0) }},
	} {
		for _, n := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/N=%d", bc.name, n), func(b *testing.B) {
				sw, err := New(Config{N: n, Receivers: 2, NewScheduler: func() sched.Scheduler { return bc.mk(n) }})
				if err != nil {
					b.Fatal(err)
				}
				gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: n, Load: 0.9, Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				arrivals := make([]*packet.Cell, n)
				step := func(slot uint64) {
					now := sw.now()
					for i, g := range gens {
						arrivals[i] = nil
						if a, ok := g.Next(slot); ok {
							arrivals[i] = sw.alloc.New(i, a.Dst, packet.Data, now)
						}
					}
					sw.Step(arrivals)
				}
				var slot uint64
				for ; slot < 256; slot++ { // warm queues to steady state
					step(slot)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step(slot)
					slot++
				}
			})
		}
	}
}
