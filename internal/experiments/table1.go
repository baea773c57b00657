package experiments

import (
	"fmt"

	"repro/internal/core"
)

// runTable1 runs the OSMOSIS switch at the commercialization target
// (IB 12x QDR ports, per §VII) near saturation and at light load, then
// scores every Table-1 requirement.
func runTable1(cfg RunConfig) (*Result, error) {
	sysCfg := core.DemonstratorConfig()
	sysCfg.Format = core.ASICTargetFormat()
	sysCfg.Seed = cfg.seed()
	if cfg.Quick {
		sysCfg.Ports = 16
	}
	sys, err := core.NewSystem(sysCfg)
	if err != nil {
		return nil, err
	}
	warm, meas := cfg.warmupMeasure(2000, 8000)
	sat, err := sys.RunUniform(0.99, warm, meas)
	if err != nil {
		return nil, err
	}
	light, err := sys.RunUniform(0.05, warm/2, meas/2)
	if err != nil {
		return nil, err
	}
	rep := sys.Verify(core.Table1(), sat, light.Latency.Mean(), 2048)

	res := &Result{ID: "table1", Title: "Key HPC fabric requirements (Table 1)"}
	for _, c := range rep.Checks {
		res.AddFinding(c.Name, c.Required, c.Measured, c.Pass)
	}
	res.AddFinding("all requirements",
		"architecture meets Table 1 at the ASIC target",
		fmt.Sprintf("pass=%v failing=%v", rep.Pass(), rep.Failed()),
		rep.Pass())
	return res, nil
}
