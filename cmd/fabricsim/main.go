// Command fabricsim simulates multistage OSMOSIS fabrics end to end:
// folded fat trees of any depth (XGFT), per-stage FLPPR arbitration,
// credit flow control, and bimodal traffic.
//
// Usage:
//
//	fabricsim -hosts 128 -radix 16                  # 3-stage fat tree
//	fabricsim -hosts 128 -radix 8 -levels 3         # force 5 stages
//	fabricsim -hosts 2048 -radix 64 -measure 500    # the paper's flagship (slow)
//	fabricsim -hosts 2048 -radix 64 -par 4          # same run, 4 shards in parallel
//	fabricsim -traffic hotspot -load 0.9            # overload a port, prove losslessness
//	fabricsim -option1                              # buffer placement option 1
//
// -par N partitions the switches into N spatial shards that tick
// concurrently in conservative-lookahead windows; the printed metrics
// are byte-identical at every N (timing goes to stderr, so stdout can
// be diffed across -par values).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/fabric"
	"repro/internal/fc"
	"repro/internal/sched"
	"repro/internal/traffic"
)

func main() {
	var (
		hosts    = flag.Int("hosts", 128, "fabric host count")
		radix    = flag.Int("radix", 16, "switch port count")
		levels   = flag.Int("levels", 0, "fat-tree levels (0 = minimal)")
		rxCount  = flag.Int("receivers", 2, "receivers per output")
		load     = flag.Float64("load", 0.6, "offered load per host")
		kind     = flag.String("traffic", "uniform", strings.Join(traffic.KindNames(), " | "))
		hotFrac  = flag.Float64("hotfrac", 0.5, "hotspot fraction")
		linkD    = flag.Int("linkdelay", 5, "inter-switch cable delay in cycles")
		capacity = flag.Int("capacity", 0, "inter-stage input buffer cells (0 = RTT-sized)")
		option1  = flag.Bool("option1", false, "buffer placement option 1 (egress buffers per stage)")
		warmup   = flag.Uint64("warmup", 1000, "warm-up slots")
		measure  = flag.Uint64("measure", 8000, "measured slots")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		par      = flag.Int("par", 1, "spatial shards ticked in parallel (1 = serial; output identical at any value)")
	)
	flag.Parse()

	x, err := fabric.NewXGFT(*hosts, *radix, *levels)
	if err != nil {
		fatal(err)
	}
	r := *radix
	cfg := fabric.Config{
		Network:        x,
		Receivers:      *rxCount,
		NewScheduler:   func() sched.Scheduler { return sched.NewFLPPR(r, 0) },
		LinkDelaySlots: *linkD,
		InputCapacity:  *capacity,
		EgressBuffered: *option1,
		Shards:         *par,
	}
	f, err := fabric.New(cfg)
	if err != nil {
		fatal(err)
	}
	loopRTT := fc.LoopRTT(*linkD, 1)
	fmt.Printf("fabric: %d hosts, %d-level fat tree of %d-port switches (%d stages, %d switches)\n",
		x.Hosts, x.Levels, x.Radix, x.StageCount(), len(x.NodeIDs()))
	fmt.Printf("flow control: loop RTT %d cycles, input buffers %d cells; placement option %d\n\n",
		loopRTT, fc.BufferFor(loopRTT, 2), map[bool]int{false: 3, true: 1}[*option1])

	tcfg := traffic.Config{N: *hosts, Load: *load, Seed: *seed, HotFraction: *hotFrac}
	k, err := traffic.ParseKind(*kind)
	if err != nil {
		fatal(err)
	}
	if k == traffic.KindTrace {
		fatal(fmt.Errorf("trace replay is a cmd/osmosis feature; fabricsim generates its traffic"))
	}
	tcfg.Kind = k
	gens, err := traffic.Build(tcfg)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	m, err := f.Run(gens, *warmup, *measure)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	total := *warmup + *measure
	fmt.Fprintf(os.Stderr, "ran %d slots on %d shard(s) in %v (%.0f slots/sec)\n",
		total, f.ShardCount(), elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())

	fmt.Printf("offered cells        %d\n", m.Offered)
	fmt.Printf("delivered cells      %d\n", m.Delivered)
	fmt.Printf("throughput/host      %.4f cells/slot\n", m.ThroughputPerHost(*hosts))
	fmt.Printf("mean latency         %.2f cycles = %v\n", float64(m.LatencySlots.Mean()), m.MeanLatency())
	fmt.Printf("p99 latency          %d cycles\n", int64(m.LatencySlots.P99()))
	if m.ControlLatencySlots.N() > 0 {
		fmt.Printf("control latency      %d cycles mean (n=%d)\n",
			int64(m.ControlLatencySlots.Mean()), m.ControlLatencySlots.N())
	}
	fmt.Printf("hop histogram        %v\n", m.HopHistogram)
	fmt.Printf("order violations     %d\n", m.OrderViolations)
	fmt.Printf("buffer drops         %d\n", m.Dropped)
	fmt.Printf("max inter-stage buf  %d cells\n", m.MaxInterInputDepth)
	fmt.Printf("fc-blocked grants    %d\n", m.FCBlocked)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
