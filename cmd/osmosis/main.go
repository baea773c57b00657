// Command osmosis simulates a single-stage OSMOSIS switch and prints
// delay, throughput, and compliance statistics.
//
// Usage examples:
//
//	osmosis                                   # 64-port demonstrator, uniform 0.5 load
//	osmosis -load 0.95 -scheduler flppr       # near saturation
//	osmosis -scheduler pipelined-islip        # the Fig.-6 prior art
//	osmosis -receivers 1                      # single-receiver egress
//	osmosis -traffic bursty -burst 32         # bursty workload
//	osmosis -traffic incast -fanin 8          # rotating fan-in storm
//	osmosis -traffic pareto -alpha 1.3        # heavy-tail on/off bursts
//	osmosis -traffic ring-allreduce -phase 128  # synthetic collective phases
//	osmosis -traffic mmpp -trace-record w.tr  # record a workload trace
//	osmosis -trace-replay w.tr                # rerun it bit-exactly
//	osmosis -sweep 0.1,0.3,0.5,0.7,0.9,0.99   # delay-vs-load curve
//	osmosis -reps 8                           # 8 parallel replications, merged stats
//	osmosis -table1                           # verify Table 1 at the ASIC target
//	osmosis -faults rx:3@4000,stall:50@8000   # degradation run with fault injection
//
// Sweeps and replications run concurrently on up to GOMAXPROCS workers;
// each point derives its own RNG seed from (-seed, point index), so the
// printed numbers are identical however many cores execute them.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/fault"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// stopProf flushes any running profilers; fatal/exit paths must call it
// because os.Exit skips deferred functions.
var stopProf = func() {}

// exit stops profiling, then terminates with the given code.
func exit(code int) {
	stopProf()
	os.Exit(code)
}

func main() {
	var (
		ports     = flag.Int("ports", 64, "switch port count")
		receivers = flag.Int("receivers", 2, "receivers per egress (1 or 2)")
		schedName = flag.String("scheduler", "flppr", strings.Join(sched.Names, " | ")+" | ideal-oq")
		param     = flag.Int("k", 0, "scheduler iterations / FLPPR sub-schedulers (0 = log2 N)")
		load      = flag.Float64("load", 0.5, "offered load per port (cells/slot)")
		kind      = flag.String("traffic", "uniform", strings.Join(traffic.KindNames(), " | "))
		burst     = flag.Float64("burst", 16, "mean burst length for bursty/mmpp/pareto traffic")
		hotFrac   = flag.Float64("hotfrac", 0.5, "hotspot fraction")
		fanin     = flag.Int("fanin", 0, "incast storm senders per epoch (0 = ports/4)")
		epoch     = flag.Uint64("epoch", 0, "incast epoch length in slots (0 = 512)")
		phase     = flag.Uint64("phase", 0, "collective phase/chunk length in slots (0 = 64)")
		alpha     = flag.Float64("alpha", 0, "pareto burst shape (0 = 1.5)")
		traceRec  = flag.String("trace-record", "", "record the workload to this trace file and exit")
		traceRep  = flag.String("trace-replay", "", "replay a recorded trace file instead of generating traffic")
		warmup    = flag.Uint64("warmup", 2000, "warm-up slots")
		measure   = flag.Uint64("measure", 10000, "measured slots")
		seed      = flag.Uint64("seed", 1, "RNG seed")
		rttCycles = flag.Int("control-rtt", 0, "adapter-to-scheduler round trip in cycles")
		reps      = flag.Int("reps", 1, "independent replications to run and merge (parallel)")
		sweepStr  = flag.String("sweep", "", "comma-separated loads for a delay-vs-load sweep")
		table1    = flag.Bool("table1", false, "verify Table 1 at the ASIC target format and exit")
		asic      = flag.Bool("asic", false, "use the ASIC-target cell format (12 GByte/s ports)")
		faultSpec = flag.String("faults", "", "fault campaign, e.g. rx:3@2000,stall:50@4000,rand:4@1000-8000")
	)
	pf := prof.Register()
	flag.Parse()

	stop, err := pf.Start()
	if err != nil {
		fatal(err)
	}
	stopProf = stop
	defer stopProf()

	sysCfg := core.DemonstratorConfig()
	sysCfg.Ports = *ports
	sysCfg.Receivers = *receivers
	sysCfg.Scheduler = *schedName
	sysCfg.SubSchedulers = *param
	sysCfg.ControlRTTCycles = *rttCycles
	sysCfg.Seed = *seed
	if *faultSpec != "" {
		if *sweepStr != "" || *reps > 1 || *table1 {
			fatal(fmt.Errorf("-faults runs a single degradation measurement; drop -sweep/-reps/-table1"))
		}
		spec, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fatal(err)
		}
		sysCfg.Faults = spec
	}
	if *asic || *table1 {
		sysCfg.Format = core.ASICTargetFormat()
	}
	sys, err := core.NewSystem(sysCfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("OSMOSIS single-stage switch: %d ports x %v, %d receiver(s), scheduler %s\n",
		*ports, sysCfg.Format.LineRate, *receivers, *schedName)
	fmt.Printf("cell %d B, cycle %v, effective user bandwidth %.1f%%, optical margin %.2f dB\n\n",
		sysCfg.Format.CellBytes, sysCfg.Format.CycleTime(),
		sysCfg.Format.EffectiveUserBandwidthFraction()*100, float64(sys.WorstMargin))

	if *table1 {
		sat, err := sys.RunUniform(0.99, *warmup, *measure)
		if err != nil {
			fatal(err)
		}
		light, err := sys.RunUniform(0.05, *warmup/2, *measure/2)
		if err != nil {
			fatal(err)
		}
		rep := sys.Verify(core.Table1(), sat, light.Latency.Mean(), 2048)
		fmt.Print(rep)
		if !rep.Pass() {
			exit(1)
		}
		return
	}

	if *sweepStr != "" {
		loads, err := parseLoads(*sweepStr)
		if err != nil {
			fatal(err)
		}
		results, err := crossbar.Sweep(sys.SwitchConfig(), loads, *seed, *warmup, *measure)
		if err != nil {
			fatal(err)
		}
		tb := stats.NewTable("delay vs load", "load")
		d := tb.AddSeries("delay_cycles")
		th := tb.AddSeries("throughput")
		for _, r := range results {
			d.Add(r.Load, r.MeanSlots)
			th.Add(r.Load, r.Throughput)
		}
		tb.Write(os.Stdout)
		return
	}

	tcfg := traffic.Config{
		Load: *load, Seed: *seed, MeanBurst: *burst, HotFraction: *hotFrac,
		Fanin: *fanin, EpochSlots: *epoch, PhaseSlots: *phase, ParetoAlpha: *alpha,
	}
	k, err := traffic.ParseKind(*kind)
	if err != nil {
		fatal(err)
	}
	tcfg.Kind = k
	switch {
	case *traceRep != "":
		f, err := os.Open(*traceRep)
		if err != nil {
			fatal(err)
		}
		tr, err := traffic.ReadTrace(f)
		_ = f.Close() // read-only; parse errors already surfaced
		if err != nil {
			fatal(err)
		}
		if tr.N != *ports {
			fatal(fmt.Errorf("trace has %d ports, switch has %d (pass -ports %d)", tr.N, *ports, tr.N))
		}
		tcfg = traffic.Config{Kind: traffic.KindTrace, Trace: tr}
	case tcfg.Kind == traffic.KindTrace:
		fatal(fmt.Errorf("-traffic trace needs -trace-replay <file>"))
	}
	if *traceRec != "" {
		if tcfg.Kind == traffic.KindTrace {
			fatal(fmt.Errorf("-trace-record and -trace-replay are mutually exclusive"))
		}
		tcfg.N = *ports
		tr, err := traffic.RecordTrace(tcfg, *warmup+*measure)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*traceRec)
		if err != nil {
			fatal(err)
		}
		if err := tr.Write(f); err != nil {
			_ = f.Close() // the write error is the one to report
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d events over %d slots to %s (osmosis-ckpt trace)\n",
			len(tr.Events), tr.Slots, *traceRec)
		return
	}
	if *reps > 1 {
		tcfg.Seed = *seed
		m, err := crossbar.Replicate(sys.SwitchConfig(), tcfg, *reps, *warmup, *measure)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("merged statistics over %d independent replications (derived seeds)\n", *reps)
		printMetrics(m, *ports)
		return
	}

	if *faultSpec != "" {
		dr, err := sys.RunDegradation(tcfg, *warmup, *measure)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fault campaign: %d event(s), %d transition(s) applied, %d skipped\n",
			dr.Schedule.Len(), dr.Applied, dr.Skipped)
		for _, e := range dr.Schedule.Events() {
			fmt.Printf("  %s\n", e)
		}
		fmt.Printf("\nepoch  slots              offered  thr/port  mean_cycles  p99_cycles  rx_rejects  rx_down  active\n")
		for i, e := range dr.Epochs {
			fmt.Printf("%5d  [%7d,%7d)  %7d  %.4f    %9.1f    %8.1f  %10d  %7d  %6d\n",
				i, e.FromSlot, e.ToSlot, e.Offered, e.Throughput(*ports), e.MeanSlots, e.P99Slots,
				e.ReceiverRejects, e.ReceiversDown, e.ActiveFaults)
		}
		fmt.Printf("\nwhole-window metrics (%d receiver(s) down, %d gate fault(s) at end, %d stalled slots):\n",
			dr.ReceiversDown, dr.GateFaults, dr.Stalls)
		printMetrics(dr.Metrics, *ports)
		return
	}

	m, err := sys.RunWorkload(tcfg, *warmup, *measure)
	if err != nil {
		fatal(err)
	}
	printMetrics(m, *ports)
}

func printMetrics(m *crossbar.Metrics, ports int) {
	fmt.Printf("offered cells        %d\n", m.Offered)
	fmt.Printf("delivered cells      %d\n", m.Delivered)
	fmt.Printf("throughput/port      %.4f cells/slot\n", m.ThroughputPerPort(ports))
	fmt.Printf("acceptance ratio     %.4f\n", m.AcceptanceRatio())
	fmt.Printf("mean delay           %.2f cycles (%v)\n", m.MeanLatencySlots(), m.Latency.Mean())
	fmt.Printf("p99 delay            %v\n", m.Latency.P99())
	fmt.Printf("grant latency        %.2f cycles\n", m.GrantLatency.Mean())
	fmt.Printf("service fairness     %.4f (Jain, per-source)\n", m.ServiceFairness())
	if m.ControlLatency.N() > 0 {
		fmt.Printf("control-cell delay   %v (n=%d)\n", m.ControlLatency.Mean(), m.ControlLatency.N())
	}
	fmt.Printf("max VOQ depth        %d cells\n", m.MaxVOQDepth)
	fmt.Printf("max egress depth     %d cells\n", m.MaxEgressDepth)
	fmt.Printf("order violations     %d\n", m.OrderViolations)
	fmt.Printf("drops                %d\n", m.Dropped)
}

func parseLoads(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	exit(1)
}
