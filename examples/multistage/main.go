// Multistage: simulate a three-stage fat tree of OSMOSIS switches with
// bimodal (control + data) traffic and scheduler-relayed flow control —
// the fabric-level composition of §IV, scaled down to run in seconds.
//
// The 2048-port flagship uses the same code path
// (a fabric.NewXGFT(2048, 64, 0) network); this example uses 128 hosts
// on 16-port switches so it finishes quickly.
package main

import (
	"fmt"
	"log"

	"repro/internal/fabric"
	"repro/internal/fc"
	"repro/internal/sched"
	"repro/internal/traffic"
)

func main() {
	const (
		hosts = 128
		radix = 16
		link  = 5 // one-way inter-switch cable delay in 51.2 ns cycles (~50 m)
	)
	loopRTT := fc.LoopRTT(link, 1)
	x, err := fabric.NewXGFT(hosts, radix, 0)
	if err != nil {
		log.Fatal(err)
	}
	cfg := fabric.Config{
		Network:        x,
		Receivers:      2,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(radix, 0) },
		LinkDelaySlots: link,
		InputCapacity:  fc.BufferFor(loopRTT, 2),
	}
	f, err := fabric.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var leaves, spines int
	for _, id := range x.NodeIDs() {
		if id.Level == 0 {
			leaves++
		} else {
			spines++
		}
	}
	fmt.Printf("fat tree: %d hosts, %d-port switches, %d leaves + %d spines, %d stages\n",
		hosts, radix, leaves, spines, x.StageCount())
	fmt.Printf("flow control: loop RTT %d cycles -> input buffers %d cells\n\n",
		loopRTT, cfg.InputCapacity)

	// Bimodal traffic (§III): bulk data plus 5% latency-critical
	// control cells with strict priority throughout the fabric.
	gens, err := traffic.Build(traffic.Config{
		Kind: traffic.KindBimodal, N: hosts, Load: 0.8, ControlShare: 0.05, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	m, err := f.Run(gens, 1000, 8000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("offered %d cells, delivered %d (%.4f acceptance)\n",
		m.Offered, m.Delivered, float64(m.Delivered)/float64(m.Offered))
	fmt.Printf("mean latency       %.2f cycles = %v\n",
		float64(m.LatencySlots.Mean()), m.MeanLatency())
	fmt.Printf("control latency    %d cycles mean / %d cycles p99 (n=%d)\n",
		int64(m.ControlLatencySlots.Mean()), int64(m.ControlLatencySlots.P99()), m.ControlLatencySlots.N())
	fmt.Printf("hop histogram      %v\n", m.HopHistogram)
	fmt.Printf("order violations   %d (must be 0)\n", m.OrderViolations)
	fmt.Printf("buffer-overflow drops %d (must be 0 - lossless by credits)\n", m.Dropped)
	fmt.Printf("max inter-stage input buffer %d cells (capacity %d)\n",
		m.MaxInterInputDepth, cfg.InputCapacity)
	fmt.Printf("grants refused by exhausted credits: %d\n", m.FCBlocked)

	drained, err := f.Drain(100000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drained cleanly: %v\n", drained)
}
