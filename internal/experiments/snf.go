package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/units"
)

// runSNF quantifies the §IV argument that made store-and-forward
// acceptable: at 12 GByte/s a 64-byte packet stores in 5.33 ns, so even
// several stages of buffering vanish against the 250 ns cable budget.
func runSNF(_ RunConfig) (*Result, error) {
	res := &Result{ID: "snf", Title: "Store-and-forward penalty (SIV)"}
	tb := stats.NewTable("Per-stage store time vs packet size", "packet_bytes")
	at12 := tb.AddSeries("store-ns-at-12GBps")
	at40g := tb.AddSeries("store-ns-at-40Gbps")
	threeStages := tb.AddSeries("3-stage-total-at-12GBps")
	cable := tb.AddSeries("cable-budget-250ns")

	for _, bytes := range []int{64, 128, 256, 512, 1024} {
		p12 := core.StoreAndForwardPenalty(bytes, units.IB12xQDRPortRate)
		p40 := core.StoreAndForwardPenalty(bytes, units.OSMOSISPortRate)
		at12.Add(float64(bytes), p12.Nanoseconds())
		at40g.Add(float64(bytes), p40.Nanoseconds())
		threeStages.Add(float64(bytes), 3*p12.Nanoseconds())
		cable.Add(float64(bytes), 250)
	}
	res.Tables = append(res.Tables, tb)

	p64 := core.StoreAndForwardPenalty(64, units.IB12xQDRPortRate)
	res.AddFinding("64 B at 12 GByte/s",
		"5.33 ns store time (SIV)",
		p64.String(),
		p64 > 5*units.Nanosecond && p64 < 6*units.Nanosecond)
	res.AddFinding("penalty negligible vs cables",
		"store-and-forward penalty negligible compared with the cable delay",
		fmt.Sprintf("3-stage total %.1f ns vs 250 ns cables at 256 B", threeStages.YAt(256)),
		threeStages.YAt(256) < 0.5*250)
	return res, nil
}

// runGuard sweeps the per-cell guard time and reports the effective
// user bandwidth of the 256 B / 51.2 ns OSMOSIS cell, locating the
// Table-1 75% line and the §VII sub-ns improvement headroom.
func runGuard(_ RunConfig) (*Result, error) {
	res := &Result{ID: "guard", Title: "Guard time vs effective user bandwidth (SIV.C, SV, SVII)"}
	tb := stats.NewTable("Effective user bandwidth vs guard time, 256 B cell at 40 Gb/s", "guard_ns")
	eff := tb.AddSeries("effective-user-bandwidth")
	req := tb.AddSeries("table1-requirement")

	for _, g := range []float64{0.5, 1, 2, 5, 8, 12, 16, 20} {
		f := packet.OSMOSISFormat()
		f.GuardTime = units.FromNanoseconds(g)
		eff.Add(g, f.EffectiveUserBandwidthFraction())
		req.Add(g, 0.75)
	}
	res.Tables = append(res.Tables, tb)

	demo := packet.OSMOSISFormat()
	res.AddFinding("demonstrator effective bandwidth",
		"close to 75% effective user bandwidth (SVI.C)",
		fmt.Sprintf("%.1f%% at %v guard", demo.EffectiveUserBandwidthFraction()*100, demo.GuardTime),
		demo.EffectiveUserBandwidthFraction() > 0.72 && demo.EffectiveUserBandwidthFraction() < 0.85)
	cross := eff.XWhereYDown(0.75)
	res.AddFinding("guard-time headroom",
		"sub-ns SOA guard times (DPSK saturation) buy user bandwidth or shorter cells",
		fmt.Sprintf("75%% line crossed at %.1f ns guard; sub-ns guard yields %.1f%%",
			cross, eff.Interp(0.5)*100),
		eff.Interp(0.5) > eff.Interp(8))

	// §IV.C decomposition: SOA switching + burst-mode CDR acquisition +
	// packet-arrival jitter must fit the format's guard allowance.
	cdr := timing.DemonstratorCDR()
	tree := timing.DemonstratorClockTree()
	budget := timing.GuardBudget{
		SOASwitching:   5 * units.Nanosecond,
		CDRAcquisition: cdr.AcquisitionTime(),
		ArrivalJitter:  tree.AlignmentWindow(),
	}
	res.AddFinding("guard budget decomposition",
		"guard = SOA switching + serdes phase re-acquisition + arrival jitter (SIV.C)",
		fmt.Sprintf("SOA %v + CDR %v + jitter %v = %v, format allows %v",
			budget.SOASwitching, budget.CDRAcquisition, budget.ArrivalJitter,
			budget.Total(), demo.GuardTime),
		budget.Fits(demo.GuardTime))

	// The hierarchical synchronization (ref [20]) must align 64
	// adapters spread across the machine room inside the jitter share.
	distances := make([]float64, 64)
	for i := range distances {
		distances[i] = 5 + float64(i%23)
	}
	aligner := timing.NewAligner(tree, distances, 1)
	spread := aligner.MeasureSpread(400)
	res.AddFinding("arrival alignment",
		"all packets arrive at the optical switch aligned to the cycle (ref [20])",
		fmt.Sprintf("worst measured spread %v over 400 slots vs %v analytic window",
			spread, tree.AlignmentWindow()),
		spread <= tree.AlignmentWindow())
	return res, nil
}
