package mgmt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
)

func testManager(t *testing.T) *Manager {
	t.Helper()
	cfg := core.DemonstratorConfig()
	cfg.Ports = 16
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInventory(t *testing.T) {
	m := testManager(t)
	inv := m.Inventory()
	if inv.Ports != 16 || inv.Receivers != 2 {
		t.Errorf("inventory %+v", inv)
	}
	if inv.SwitchingModules != 32 {
		t.Errorf("modules %d, want ports*receivers", inv.SwitchingModules)
	}
	if inv.WorstMarginDB <= 0 {
		t.Errorf("margin %v", inv.WorstMarginDB)
	}
	if inv.CellBytes != 256 || inv.CycleTime != "51.2ns" {
		t.Errorf("format %+v", inv)
	}
	if inv.Scheduler != "flppr" {
		t.Errorf("scheduler %q", inv.Scheduler)
	}
}

func TestSelfTestAllPass(t *testing.T) {
	m := testManager(t)
	checks := m.SelfTest(1)
	if len(checks) != 6 {
		t.Fatalf("%d checks", len(checks))
	}
	if !AllOK(checks) {
		for _, c := range checks {
			if c.Status != OK {
				t.Errorf("check %s failed: %s", c.Name, c.Detail)
			}
		}
	}
	names := map[string]bool{}
	for _, c := range checks {
		names[c.Name] = true
	}
	for _, want := range []string{"optical-power-budget", "soa-gate-selectivity", "receiver-health", "arbiter-sanity", "fec-loopback", "timing-budget"} {
		if !names[want] {
			t.Errorf("missing self-test %s", want)
		}
	}
}

func TestSelfTestDetectsBrokenBudget(t *testing.T) {
	cfg := core.DemonstratorConfig()
	cfg.Ports = 16
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the guard budget: a format with a hopeless guard.
	badCfg := sys.Config()
	_ = badCfg
	// The timing check reads the format from the system config; build a
	// fresh system with a too-tight guard via the packet format.
	cfg2 := core.DemonstratorConfig()
	cfg2.Ports = 16
	cfg2.Format.GuardTime = 0
	sys2, err := core.NewSystem(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(sys2)
	if err != nil {
		t.Fatal(err)
	}
	checks := m2.SelfTest(1)
	if AllOK(checks) {
		t.Error("zero-guard format passed the timing self-test")
	}
}

func TestCaptureSnapshot(t *testing.T) {
	m := testManager(t)
	s, err := m.Capture(0.5, 200, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if s.Delivered == 0 || s.ThroughputPerPort < 0.4 {
		t.Errorf("snapshot %+v", s)
	}
	if s.OrderViolations != 0 || s.Drops != 0 {
		t.Errorf("integrity: %+v", s)
	}
	if s.MeanLatencyNs <= 0 || s.P99LatencyNs < s.MeanLatencyNs {
		t.Errorf("latencies: mean %v p99 %v", s.MeanLatencyNs, s.P99LatencyNs)
	}
}

func TestFullReportJSON(t *testing.T) {
	m := testManager(t)
	rep, err := m.FullReport(1, []float64{0.2, 0.8}, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Snapshots) != 2 {
		t.Fatalf("%d snapshots", len(rep.Snapshots))
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"inventory"`, `"self_test"`, `"snapshots"`, `"throughput_per_port"`, `"worst_optical_margin_db"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s", want)
		}
	}
	// Round-trip.
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Inventory.Ports != 16 || len(back.SelfTest) != 6 {
		t.Errorf("round trip lost data: %+v", back.Inventory)
	}
	// Higher load must not lower throughput below the lighter run.
	if rep.Snapshots[1].ThroughputPerPort < rep.Snapshots[0].ThroughputPerPort {
		t.Errorf("throughput not increasing with load: %v vs %v",
			rep.Snapshots[0].ThroughputPerPort, rep.Snapshots[1].ThroughputPerPort)
	}
}
