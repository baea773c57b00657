package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/fault"
	"repro/internal/fec"
	"repro/internal/link"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/units"
)

// runFaults measures how the reliability stack the paper's viability
// argument rests on (§IV, §VI) actually degrades when components fail:
//
//  1. a graceful-degradation curve — throughput and p99 delay as k
//     receivers are failed out of a dual-receiver switch, from healthy
//     (k=0) through every-egress-degraded (k=N) to half-dark (k=3N/2);
//  2. a mid-run campaign segmented into epochs at each fault
//     transition, showing delivery stays lossless while service
//     degrades and partially recovers;
//  3. a BER burst on a reliable link, absorbed by FEC-flagged
//     go-back-N retransmission with no delivered corruption.
//
// All fault draws come from the stream derived via sim.DeriveSeed with
// fault.StreamLabel, so the traffic any configuration sees is identical
// to the healthy run's and results are byte-stable at any parallelism.
func runFaults(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "faults", Title: "Fault injection & graceful degradation"}
	n := 32
	ks := []int{0, 1, 2, 4, 8, 16, 32, 48}
	warm, meas := cfg.warmupMeasure(2000, 8000)
	if cfg.Quick {
		n = 16
		ks = []int{0, 2, 8, 16, 24}
	}

	if err := degradationCurve(res, cfg, n, ks, warm, meas); err != nil {
		return nil, err
	}
	if err := epochTable(res, cfg, n, warm, meas); err != nil {
		return nil, err
	}
	if err := berBurstTable(res, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// curvePoint is one failed-receiver count on the degradation curve.
type curvePoint struct {
	m   *crossbar.Metrics
	err error
}

// runFailK runs one switch with k receivers failed from slot 0. All
// points share one traffic seed, so the fault count is the only
// variable between them.
func runFailK(k, n int, load float64, seed, warm, meas uint64) curvePoint {
	schedule, err := fault.FailKReceivers(k, n, 2, seed)
	if err != nil {
		return curvePoint{err: err}
	}
	sw, err := crossbar.New(crossbar.Config{N: n, Receivers: 2})
	if err != nil {
		return curvePoint{err: err}
	}
	sw.AttachFaults(fault.NewInjector(schedule))
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: n, Load: load, Seed: seed})
	if err != nil {
		return curvePoint{err: err}
	}
	m, err := sw.Run(gens, warm, meas)
	return curvePoint{m: m, err: err}
}

// degradationCurve produces the headline table: performance vs failed
// receiver count, with a single-receiver reference alongside.
func degradationCurve(res *Result, cfg RunConfig, n int, ks []int, warm, meas uint64) error {
	const load = 0.92
	seed := cfg.seed()
	tb := stats.NewTable(fmt.Sprintf("Degradation vs failed receivers, %d ports, uniform load %.2f", n, load),
		"failed_receivers")
	thr := tb.AddSeries("throughput_per_port")
	p99 := tb.AddSeries("p99_delay_cycles")
	rej := tb.AddSeries("receiver_rejects")

	points := parallel.Map(len(ks), 0, func(i int) curvePoint {
		return runFailK(ks[i], n, load, seed, warm, meas)
	})
	cyc := 0.0
	for i, p := range points {
		if p.err != nil {
			return p.err
		}
		cyc = float64(p.m.CycleTime)
		thr.Add(float64(ks[i]), p.m.ThroughputPerPort(n))
		p99.Add(float64(ks[i]), float64(p.m.Latency.P99())/cyc)
		rej.Add(float64(ks[i]), float64(p.m.ReceiverRejects))
		if p.m.Dropped != 0 || p.m.OrderViolations != 0 {
			return fmt.Errorf("faults: k=%d lost cells (dropped=%d, ooo=%d)", ks[i], p.m.Dropped, p.m.OrderViolations)
		}
	}
	res.Tables = append(res.Tables, tb)

	// Reference: a switch built single-receiver, same traffic.
	ref := runFailK(0, n, load, seed, warm, meas)
	refSingle, err := crossbar.New(crossbar.Config{N: n, Receivers: 1})
	if err != nil {
		return err
	}
	gens, err := traffic.Build(traffic.Config{Kind: traffic.KindUniform, N: n, Load: load, Seed: seed})
	if err != nil {
		return err
	}
	single, err := refSingle.Run(gens, warm, meas)
	if err != nil {
		return err
	}
	if ref.err != nil {
		return ref.err
	}

	// Window-boundary jitter: cells arriving near the window edge may be
	// delivered just inside or outside it, so identical-traffic runs can
	// differ by a few cells. Real degradation at this load is far larger.
	const edgeTol = 2e-3
	mono := true
	for i := 1; i < len(ks); i++ {
		if thr.Points[i].Y > thr.Points[i-1].Y+edgeTol {
			mono = false
		}
	}
	res.AddFinding("throughput degrades monotonically",
		"each lost receiver can only reduce deliverable capacity",
		fmt.Sprintf("throughput/port %.4f (k=0) -> %.4f (k=%d), non-increasing=%v",
			thr.Points[0].Y, thr.Points[len(ks)-1].Y, ks[len(ks)-1], mono), mono)

	// Every-egress-degraded must equal a switch built single-receiver:
	// the scheduler sizes grants with the live receiver count, so the
	// two are the same machine.
	kn := -1
	for i, k := range ks {
		if k == n {
			kn = i
		}
	}
	if kn >= 0 {
		singleThr := single.ThroughputPerPort(n)
		res.AddFinding("k=N equals single-receiver build",
			"dual-receiver switch with one receiver down per egress == single-receiver switch (Fig. 7)",
			fmt.Sprintf("throughput %.6f vs %.6f, p99 %.1f vs %.1f cycles",
				thr.Points[kn].Y, singleThr, p99.Points[kn].Y, float64(single.Latency.P99())/cyc),
			thr.Points[kn].Y == singleThr && p99.Points[kn].Y == float64(single.Latency.P99())/cyc)
	}
	res.AddFinding("lossless in-order delivery throughout",
		"losslessness must survive receiver faults (delayed, not dropped)",
		fmt.Sprintf("0 drops and 0 order violations across all %d fault levels", len(ks)), true)
	return nil
}

// epochTable runs a mid-window campaign on the demonstrator system and
// reports the per-epoch segmentation.
func epochTable(res *Result, cfg RunConfig, n int, warm, meas uint64) error {
	// Faults land at fractions of the measurement window: three receiver
	// losses (the middle one healing), then a scheduler stall.
	at := func(f float64) uint64 { return warm + uint64(f*float64(meas)) }
	spec := fault.Spec{Events: []fault.Event{
		{Kind: fault.ReceiverLoss, Egress: 1, Receiver: 1, Start: at(0.2)},
		{Kind: fault.ReceiverLoss, Egress: 2, Receiver: 1, Start: at(0.35), Duration: uint64(0.3 * float64(meas))},
		{Kind: fault.ReceiverLoss, Egress: 3, Receiver: 1, Start: at(0.5)},
		{Kind: fault.SchedStall, Start: at(0.8), Duration: meas / 40},
	}}
	sysCfg := core.DemonstratorConfig()
	sysCfg.Ports = n
	sysCfg.Seed = cfg.seed()
	sysCfg.Faults = spec
	sys, err := core.NewSystem(sysCfg)
	if err != nil {
		return err
	}
	dr, err := sys.RunDegradation(traffic.Config{Kind: traffic.KindUniform, Load: 0.9}, warm, meas)
	if err != nil {
		return err
	}
	tb := stats.NewTable(fmt.Sprintf("Mid-run campaign epochs, %d ports, uniform load 0.90", n), "epoch")
	thr := tb.AddSeries("throughput_per_port")
	p99 := tb.AddSeries("p99_delay_cycles")
	down := tb.AddSeries("receivers_down")
	for i, e := range dr.Epochs {
		thr.Add(float64(i), e.Throughput(n))
		p99.Add(float64(i), e.P99Slots)
		down.Add(float64(i), float64(e.ReceiversDown))
	}
	res.Tables = append(res.Tables, tb)

	if dr.Metrics.Dropped != 0 || dr.Metrics.OrderViolations != 0 {
		return fmt.Errorf("faults: campaign lost cells (dropped=%d, ooo=%d)",
			dr.Metrics.Dropped, dr.Metrics.OrderViolations)
	}
	res.AddFinding("campaign segments into epochs",
		"every fault transition in the window opens a new metrics epoch",
		fmt.Sprintf("%d epochs from %d events (%d applied, %d skipped)",
			len(dr.Epochs), dr.Schedule.Len(), dr.Applied, dr.Skipped),
		len(dr.Epochs) >= 5 && dr.Skipped == 0)
	last := dr.Epochs[len(dr.Epochs)-1]
	res.AddFinding("damage visible per epoch",
		"epoch damage counters track the live fault state",
		fmt.Sprintf("receivers down: first epoch %d, last epoch %d; %d stalled slots",
			dr.Epochs[0].ReceiversDown, last.ReceiversDown, dr.Stalls),
		dr.Epochs[0].ReceiversDown == 0 && last.ReceiversDown == 2 && dr.Stalls > 0)
	return nil
}

// berBurstTable drives a reliable link through a clean/burst/recovered
// cycle and tabulates the retransmission cost per phase.
func berBurstTable(res *Result, cfg RunConfig) error {
	frames := 300
	if cfg.Quick {
		frames = 150
	}
	k := sim.New()
	fwd := link.NewChannel(50*units.Nanosecond, units.OSMOSISPortRate, 0, sim.DeriveSeed(cfg.seed(), 0xB0))
	rev := link.NewChannel(50*units.Nanosecond, units.OSMOSISPortRate, 0, sim.DeriveSeed(cfg.seed(), 0xB1))
	l := link.NewReliableLink(k, fwd, rev, link.Codec{}, 8, 2*units.Microsecond)
	delivered := 0
	var mismatch bool
	var want [][]byte
	l.Deliver = func(f link.Frame) {
		if delivered < len(want) && !bytes.Equal(f.Payload, want[delivered]) {
			mismatch = true
		}
		delivered++
	}
	rng := sim.NewRNG(sim.DeriveSeed(cfg.seed(), 0xB2))
	phase := func(count int) (uint64, error) {
		for i := 0; i < count; i++ {
			p := make([]byte, 2*fec.DataSymbols)
			for j := range p {
				p[j] = byte(rng.Uint64())
			}
			want = append(want, p)
			if err := l.Send(p); err != nil {
				return 0, err
			}
		}
		k.Run(units.Second)
		if !l.Done() {
			return 0, fmt.Errorf("faults: link not drained: %v", l.Err())
		}
		return l.Retransmitted, nil
	}

	// Hot enough that a burst phase always defeats the FEC's double-bit
	// detection a few times (driving retransmission), but cool enough
	// that a ≥3-flip miscorrection — which the (34,32) code cannot catch
	// — stays below the horizon of the run.
	const burstBER = 1e-3
	tb := stats.NewTable(fmt.Sprintf("Reliable link through a BER burst (%.0e raw)", burstBER), "phase")
	retx := tb.AddSeries("retransmissions")
	cum := tb.AddSeries("delivered_frames")

	r0, err := phase(frames)
	if err != nil {
		return err
	}
	retx.Add(0, float64(r0))
	cum.Add(0, float64(delivered))
	fwd.SetBurst(burstBER)
	r1, err := phase(frames)
	if err != nil {
		return err
	}
	retx.Add(1, float64(r1-r0))
	cum.Add(1, float64(delivered))
	fwd.ClearBurst()
	r2, err := phase(frames)
	if err != nil {
		return err
	}
	retx.Add(2, float64(r2-r1))
	cum.Add(2, float64(delivered))
	res.Tables = append(res.Tables, tb)

	res.AddFinding("burst absorbed by retransmission",
		"FEC-flagged uncorrectables drive go-back-N; clean phases need none (§IV.C)",
		fmt.Sprintf("retx per phase: clean %d, burst %d, recovered %d", r0, r1-r0, r2-r1),
		r0 == 0 && r1 > r0 && r2 == r1)
	res.AddFinding("no delivered corruption",
		"user BER improves beyond the FEC floor; delivery stays in order",
		fmt.Sprintf("%d/%d frames delivered intact and in order", delivered, 3*frames),
		delivered == 3*frames && !mismatch)
	return nil
}
