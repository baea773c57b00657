// Command osmosisctl is the management console of §VI.A — configure,
// self-test, monitor, and extract performance values from an OSMOSIS
// switch — as a CLI with JSON output instead of the original GUI.
//
// Usage:
//
//	osmosisctl inventory                 # managed hardware summary
//	osmosisctl selftest                  # built-in test battery
//	osmosisctl report -loads 0.2,0.5,0.9 # full JSON report with snapshots
//	osmosisctl -ports 32 selftest        # manage a different build
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/mgmt"
)

func main() {
	var (
		ports     = flag.Int("ports", 64, "switch port count")
		receivers = flag.Int("receivers", 2, "receivers per egress")
		schedName = flag.String("scheduler", "flppr", "arbiter kind")
		seed      = flag.Uint64("seed", 1, "RNG seed")
		loadsStr  = flag.String("loads", "0.2,0.5,0.9", "snapshot loads for report")
		warmup    = flag.Uint64("warmup", 1000, "snapshot warm-up slots")
		measure   = flag.Uint64("measure", 6000, "snapshot measured slots")
	)
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "report"
	}

	cfg := core.DemonstratorConfig()
	cfg.Ports = *ports
	cfg.Receivers = *receivers
	cfg.Scheduler = core.SchedulerKind(*schedName)
	cfg.Seed = *seed
	sys, err := core.NewSystem(cfg)
	if err != nil {
		fatal(err)
	}
	m, err := mgmt.New(sys)
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "inventory":
		rep := mgmt.Report{Inventory: m.Inventory()}
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	case "selftest":
		checks := m.SelfTest(*seed)
		for _, c := range checks {
			fmt.Printf("%-24s %-7s %s\n", c.Name, strings.ToUpper(string(c.Status)), c.Detail)
		}
		if !mgmt.AllOK(checks) {
			os.Exit(1)
		}
	case "report":
		loads, err := parseLoads(*loadsStr)
		if err != nil {
			fatal(err)
		}
		rep, err := m.FullReport(*seed, loads, *warmup, *measure)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		if !mgmt.AllOK(rep.SelfTest) {
			os.Exit(1)
		}
	default:
		fatal(fmt.Errorf("unknown command %q (inventory | selftest | report)", cmd))
	}
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
	os.Exit(1)
}
