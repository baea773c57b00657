// Command fabricplan sizes multistage fabrics for a target port count
// and compares switch technologies on stages, switch count, cabling,
// OEO layers, power, and unloaded latency — the §VI.C planning study.
//
// Usage:
//
//	fabricplan -ports 2048
//	fabricplan -ports 8192 -rate 96e9
//	fabricplan -ports 2048 -diameter 50
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/units"
)

func main() {
	var (
		ports    = flag.Int("ports", 2048, "required fabric port count")
		rateF    = flag.Float64("rate", float64(units.IB12xQDRPortRate), "port rate in bit/s")
		diameter = flag.Float64("diameter", 50, "machine-room diameter in meters")
	)
	flag.Parse()
	rate := units.Bandwidth(*rateF)

	type tech struct {
		name  string
		radix int
		kind  string
	}
	techs := []tech{
		{"OSMOSIS optical 64p", 64, "optical"},
		{"High-end electronic 32p", 32, "cmos"},
		{"Commodity electronic 12p", 12, "cmos"},
		{"Commodity electronic 8p", 8, "cmos"},
	}

	fmt.Printf("Fabric plan for %d ports at %v per port, %gm room\n\n", *ports, rate, *diameter)
	fmt.Printf("%-26s %7s %9s %8s %7s %10s %12s\n",
		"technology", "stages", "switches", "cables", "OEO", "power_kW", "latency_ns")
	tr := power.DefaultTransceiver()
	cell := units.TransmissionTime(256, rate)
	pps := float64(rate) / (256 * 8)
	for _, tc := range techs {
		p, err := power.PlanFabric(*ports, tc.radix, rate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", tc.name, err)
			continue
		}
		var watts float64
		if tc.kind == "optical" {
			watts = p.HybridFabricPower(power.DefaultOptical(tc.radix, 2, 8, rate), tr, pps)
		} else {
			watts = p.ElectronicFabricPower(power.DefaultCMOS(tc.radix, rate), tr)
		}
		lat := core.MultistageLatency(p.Stages, 30*units.Nanosecond, cell, *diameter)
		fmt.Printf("%-26s %7d %9d %8d %7d %10.1f %12.0f\n",
			tc.name, p.Stages, p.Switches, p.InterStageLinks, p.OEOLayers,
			watts/1000, lat.Nanoseconds())
	}

	fmt.Printf("\nSingle-stage central-scheduler alternative (Fig. 1):\n")
	b := core.SingleStageCentralLatency(*diameter, 100*units.Nanosecond, cell)
	fmt.Printf("  2xRTT + scheduling latency: %v (budget %v) -> %s\n",
		b.Total, core.FabricLatencyBudget, verdict(b.Total > core.FabricLatencyBudget))
}

func verdict(exceeds bool) string {
	if exceeds {
		return "INFEASIBLE, multistage required"
	}
	return "feasible"
}
