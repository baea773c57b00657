package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/units"
)

func init() {
	mustRegister("fig1", "Fig. 1: control and data latency of a single-stage centrally scheduled fabric vs machine-room size", runFig1)
}

// runFig1 sweeps the machine-room diameter and compares the 2-RTT
// single-stage latency against the multistage store-and-forward fabric
// and the paper's 500 ns budget, locating the structural conclusion:
// single-stage central scheduling cannot meet the budget at machine-room
// scale, regardless of switch technology.
func runFig1(cfg RunConfig) (*Result, error) {
	res := &Result{ID: "fig1", Title: "Single-stage 2xRTT latency vs multistage (Fig. 1 / SIII)"}
	cell := 51200 * units.Picosecond
	sched := 100 * units.Nanosecond

	tb := stats.NewTable("Unloaded fabric latency vs machine-room diameter", "diameter_m")
	single := tb.AddSeries("single-stage-2RTT")
	multi := tb.AddSeries("multistage-3-stage")
	budgetLine := tb.AddSeries("budget-500ns")
	for d := 10.0; d <= 100; d += 10 {
		b := core.SingleStageCentralLatency(d, sched, cell)
		single.Add(d, b.Total.Nanoseconds())
		m := core.MultistageLatency(3, 30*units.Nanosecond, cell, d)
		multi.Add(d, m.Nanoseconds())
		budgetLine.Add(d, core.FabricLatencyBudget.Nanoseconds())
	}
	res.Tables = append(res.Tables, tb)

	at50 := core.SingleStageCentralLatency(50, sched, cell)
	res.AddFinding("single-stage latency at 50 m",
		"2 RTT + scheduling exceeds the 500 ns fabric budget",
		fmt.Sprintf("%v (RTT %v)", at50.Total, at50.RTT),
		at50.Total > core.FabricLatencyBudget)

	m50 := core.MultistageLatency(3, 30*units.Nanosecond, cell, 50)
	res.AddFinding("multistage latency at 50 m",
		"store-and-forward multistage fits the budget",
		m50.String(),
		m50 <= core.FabricLatencyBudget)

	cross := single.XWhereY(core.FabricLatencyBudget.Nanoseconds())
	res.AddFinding("single-stage feasibility horizon",
		"single-stage central scheduling only works for small rooms",
		fmt.Sprintf("budget crossed at %.1f m diameter", cross),
		cross < 50)
	return res, nil
}
