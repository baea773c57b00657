// Managed: operate the demonstrator the way the §VI.A management system
// does — inventory the hardware, run the built-in self-tests, couple the
// arbiter to the optical gate fabric for a hardware-in-the-loop run,
// and extract a JSON performance report.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/mgmt"
)

func main() {
	cfg := core.DemonstratorConfig()
	cfg.Ports = 32 // quick to simulate; same architecture
	sys, err := core.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	m, err := mgmt.New(sys)
	if err != nil {
		log.Fatal(err)
	}

	inv := m.Inventory()
	fmt.Printf("managed system: %d ports x %s, %d switching modules, %d SOAs, margin %.2f dB\n\n",
		inv.Ports, inv.LineRate, inv.SwitchingModules, inv.SOACount, inv.WorstMarginDB)

	fmt.Println("built-in self-tests:")
	checks := m.SelfTest(1)
	for _, c := range checks {
		fmt.Printf("  %-24s %-6s %s\n", c.Name, c.Status, c.Detail)
	}
	if !mgmt.AllOK(checks) {
		log.Fatal("self-test failed")
	}

	// Hardware in the loop: the scheduler reconfigures the SOA gates
	// every 51.2 ns cycle; the guard budget must hold.
	metrics, rep, err := sys.RunWithOptics(0.7, 500, 4000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhardware-in-the-loop run at 0.7 load:\n")
	fmt.Printf("  delivered %d cells, mean delay %.2f cycles\n",
		metrics.Delivered, metrics.MeanLatencySlots())
	fmt.Printf("  SOA reconfigurations: %d (%.1f modules/cycle)\n",
		rep.SwitchEvents, rep.ReconfigsPerSlot)
	fmt.Printf("  worst gate settling %v within the %v guard: %v\n",
		rep.MaxGuard, rep.GuardBudget, rep.GuardOK)
	fmt.Printf("  optical path errors: %d\n\n", rep.PathErrors)

	// Extract performance values as JSON (the console's export).
	report, err := m.FullReport(1, []float64{0.3, 0.9}, 400, 2500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("performance report (JSON):")
	if err := report.WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
