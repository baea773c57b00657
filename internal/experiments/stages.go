package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/units"
)

// runStages reproduces the §VI.C comparison: a 2048-port fabric needs 3
// OSMOSIS stages, 5 high-end electronic stages, or 9 commodity stages,
// and the hybrid saves two OEO layers versus the high-end electronic
// fat tree.
func runStages(_ RunConfig) (*Result, error) {
	res := &Result{ID: "stages", Title: "Fabric stage counts (SVI.C)"}
	rate := units.IB12xQDRPortRate

	type techRow struct {
		name  string
		radix int
		want  int
	}
	rows := []techRow{
		{"osmosis-64", 64, 3},
		{"electronic-highend-32", 32, 5},
		{"commodity-12", 12, 7},
		{"commodity-8", 8, 9},
	}
	tb := stats.NewTable("2048-port fabric composition by switch technology", "radix")
	stages := tb.AddSeries("stages")
	switches := tb.AddSeries("switches")
	cables := tb.AddSeries("inter-stage-cables")
	oeo := tb.AddSeries("oeo-layers")

	plans := map[string]power.FabricPlan{}
	for _, r := range rows {
		p, err := power.PlanFabric(2048, r.radix, rate)
		if err != nil {
			return nil, err
		}
		plans[r.name] = p
		stages.Add(float64(r.radix), float64(p.Stages))
		switches.Add(float64(r.radix), float64(p.Switches))
		cables.Add(float64(r.radix), float64(p.InterStageLinks))
		oeo.Add(float64(r.radix), float64(p.OEOLayers))
		res.AddFinding(fmt.Sprintf("stages with %s", r.name),
			fmt.Sprintf("%d stages", r.want),
			fmt.Sprintf("%d stages (%d switches)", p.Stages, p.Switches),
			p.Stages == r.want)
	}
	res.Tables = append(res.Tables, tb)

	saving := plans["electronic-highend-32"].OEOLayers - plans["osmosis-64"].OEOLayers
	res.AddFinding("OEO savings",
		"OSMOSIS saves two layers of OEO conversions in the fat tree",
		fmt.Sprintf("%d layers saved", saving),
		saving == 2)
	return res, nil
}

// runPower regenerates the §I power argument: CMOS switch power grows
// with the data rate while the optical stage is flat, with only the
// packet-rate control term varying.
func runPower(_ RunConfig) (*Result, error) {
	res := &Result{ID: "power", Title: "Power scaling (SI, SVII)"}
	tb := stats.NewTable("64-port switch power vs port rate", "port_rate_gbps")
	cmos := tb.AddSeries("cmos-electronic")
	opt := tb.AddSeries("soa-optical")
	tr := power.DefaultTransceiver()

	for _, g := range []float64{10, 20, 40, 80, 160} {
		rate := units.Bandwidth(g * 1e9)
		c := power.DefaultCMOS(64, rate)
		o := power.DefaultOptical(64, 2, 8, rate)
		// Packet rate scales with line rate at fixed 256 B cells.
		pps := float64(rate) / (256 * 8)
		cmos.Add(g, c.Power())
		opt.Add(g, o.Power(pps))
	}
	res.Tables = append(res.Tables, tb)

	cGrowth := cmos.YAt(160) / cmos.YAt(10)
	oGrowth := opt.YAt(160) / opt.YAt(10)
	res.AddFinding("CMOS power scales with data rate",
		"power proportional to clock (data) rates",
		fmt.Sprintf("16x rate -> %.1fx power", cGrowth),
		cGrowth > 8)
	res.AddFinding("optical power nearly flat in data rate",
		"optical switch element power independent of data rate; control scales with packet rate",
		fmt.Sprintf("16x rate -> %.2fx power (control term only)", oGrowth),
		oGrowth < 2)
	cross := 0.0
	for _, g := range []float64{10, 20, 40, 80, 160} {
		if opt.YAt(g) < cmos.YAt(g) && cross == 0 {
			cross = g
		}
	}
	res.AddFinding("crossover",
		"optical switching wins at HPC port rates",
		fmt.Sprintf("optical cheaper from %.0f Gb/s ports upward", cross),
		cross > 0 && cross <= 40)

	// Fabric-level comparison at the 2048-port target.
	rate := units.IB12xQDRPortRate
	ep, err := power.PlanFabric(2048, 32, rate)
	if err != nil {
		return nil, err
	}
	op, err := power.PlanFabric(2048, 64, rate)
	if err != nil {
		return nil, err
	}
	elec := ep.ElectronicFabricPower(power.DefaultCMOS(32, rate), tr)
	hyb := op.HybridFabricPower(power.DefaultOptical(64, 2, 8, rate), tr, float64(rate)/(256*8))
	res.AddFinding("fabric-level power",
		"lower fabric-level power consumption drives optical adoption",
		fmt.Sprintf("2048-port fabric: hybrid %.0f W vs electronic %.0f W (%.1fx)", hyb, elec, elec/hyb),
		hyb < elec)

	// §I: parallel multistage electronic planes can always reach the
	// bandwidth — at a multiplied switch/cable/power cost.
	pp, err := power.PlanesFor(2048, 32, rate, 10*units.GigabitPerSecond)
	if err != nil {
		return nil, err
	}
	multi := pp.Power(power.DefaultCMOS(32, 10*units.GigabitPerSecond), tr)
	res.AddFinding("parallel electronic planes",
		"parallel multistage electronic fabrics can always provide the bandwidth, at a power/cost penalty",
		fmt.Sprintf("%d planes of 10G fabric: %d switches, %d cables, %.0f W (%.1fx the hybrid)",
			pp.Planes, pp.Switches, pp.Cables, multi, multi/hyb),
		pp.Planes == 10 && multi > hyb)
	return res, nil
}

// runScaling regenerates the §VII outlook: the architecture scales to
// 256 ports x 200 Gb/s (>50 Tb/s) in a single stage, far beyond the
// 6-8 Tb/s electronic single-stage ceiling, with FLPPR parallelism
// absorbing the additional scheduler iterations.
func runScaling(_ RunConfig) (*Result, error) {
	res := &Result{ID: "scaling", Title: "Scaling outlook (SVII)"}
	tb := stats.NewTable("Single-stage aggregate bandwidth by configuration", "ports")
	agg := tb.AddSeries("osmosis-aggregate")
	limit := tb.AddSeries("electronic-limit")

	type cfg struct {
		colors, fibers int
		rate           units.Bandwidth
	}
	cfgs := []cfg{
		{8, 8, 40 * units.GigabitPerSecond},    // demonstrator
		{8, 16, 80 * units.GigabitPerSecond},   // intermediate
		{16, 16, 200 * units.GigabitPerSecond}, // §VII outlook
	}
	var outlookOK bool
	for _, c := range cfgs {
		p, err := core.NewScalePoint(c.colors, c.fibers, c.rate)
		if err != nil {
			return nil, err
		}
		agg.Add(float64(p.Ports), p.Aggregate.TbPerSecond())
		limit.Add(float64(p.Ports), 8)
		if p.Ports == 256 && c.rate == 200*units.GigabitPerSecond {
			outlookOK = p.Aggregate.TbPerSecond() >= 50
			res.AddFinding("256x200G single stage",
				"256 ports at 200 Gb/s per port are feasible in a single stage (>= 50 Tb/s)",
				fmt.Sprintf("%d ports, %.1f Tb/s, %d scheduler iterations", p.Ports, p.Aggregate.TbPerSecond(), p.SchedulerIterations),
				outlookOK)
			k := p.FLPPRSpeedupNeeded(4)
			res.AddFinding("FLPPR parallelism at scale",
				"a 4x ASIC speedup lets FLPPR fit the extra iterations via parallelism",
				fmt.Sprintf("%d sub-schedulers needed", k),
				k >= p.SchedulerIterations && k <= 64)
		}
	}
	res.Tables = append(res.Tables, tb)
	res.AddFinding("beyond the electronic ceiling",
		"electronic single stage tops out at 6-8 Tb/s; OSMOSIS scales past 50",
		fmt.Sprintf("largest configuration: %.1f Tb/s vs 8 Tb/s ceiling", agg.YAt(256)),
		agg.YAt(256) > 8)
	return res, nil
}
