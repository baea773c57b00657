package mgmt

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

// checkByName fetches one check from a battery.
func checkByName(t *testing.T, checks []Check, name string) Check {
	t.Helper()
	for _, c := range checks {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("self-test battery has no %q check", name)
	return Check{}
}

// TestBISTDetectsInjectedFaults closes the §VI.A loop end to end: a
// fault campaign compiled by internal/fault and wired through
// core.AttachFaults must be flagged by the self-test battery — a
// stuck-off gate by the selectivity walk, a lost receiver by the
// receiver-health check — and the battery must go green again once the
// faults clear.
func TestBISTDetectsInjectedFaults(t *testing.T) {
	cfg := core.DemonstratorConfig()
	cfg.Ports = 16
	spec, err := fault.ParseSpec("rx:3@100+500,soaoff:7@100+500")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = spec
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := sys.CompileFaults()
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(schedule)
	sys.AttachFaults(mgr.sw, inj)

	// Before the faults land, the full battery passes.
	for _, c := range mgr.SelfTest(1) {
		if c.Status != OK {
			t.Fatalf("pre-fault check %s failed: %s", c.Name, c.Detail)
		}
	}

	// Land both faults (due at slot 100) and re-run the BIST.
	inj.Tick(100)
	checks := mgr.SelfTest(1)
	if AllOK(checks) {
		t.Fatal("BIST green with a lost receiver and a stuck-off gate injected")
	}
	rx := checkByName(t, checks, "receiver-health")
	if rx.Status != Failed || !strings.Contains(rx.Detail, "egress 3") {
		t.Errorf("receiver-health = %s (%s), want failure naming egress 3", rx.Status, rx.Detail)
	}
	gate := checkByName(t, checks, "soa-gate-selectivity")
	if gate.Status != Failed || !strings.Contains(gate.Detail, "stuck-off") {
		t.Errorf("soa-gate-selectivity = %s (%s), want a stuck-off diagnosis", gate.Status, gate.Detail)
	}

	// After both faults clear (slot 600), the battery is green again.
	inj.Tick(600)
	for _, c := range mgr.SelfTest(1) {
		if c.Status != OK {
			t.Errorf("post-clear check %s still failing: %s", c.Name, c.Detail)
		}
	}
	if inj.Skipped != 0 {
		t.Errorf("injector skipped %d transitions; system wiring incomplete", inj.Skipped)
	}
}

// TestReceiverCheckOnlyWithAttachedSwitch: the receiver-health check
// runs against the switch the manager builds and attaches at
// construction, and follows that switch's receivers out of and back
// into service.
func TestReceiverCheckOnlyWithAttachedSwitch(t *testing.T) {
	m := testManager(t)
	checks := m.SelfTest(1)
	if len(checks) != 6 {
		t.Fatalf("battery has %d checks, want 6", len(checks))
	}
	if c := checkByName(t, checks, "receiver-health"); c.Status != OK {
		t.Errorf("healthy switch failed receiver-health: %s", c.Detail)
	}
	if err := m.sw.SetReceiver(5, 1, false); err != nil {
		t.Fatal(err)
	}
	c := checkByName(t, m.SelfTest(1), "receiver-health")
	if c.Status != Failed || !strings.Contains(c.Detail, "egress 5") {
		t.Errorf("receiver down at egress 5 not reported: %+v", c)
	}
	if err := m.sw.SetReceiver(5, 1, true); err != nil {
		t.Fatal(err)
	}
	if c := checkByName(t, m.SelfTest(1), "receiver-health"); c.Status != OK {
		t.Errorf("restored receiver still failing: %s", c.Detail)
	}
}
