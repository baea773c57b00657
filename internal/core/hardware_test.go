package core

import "testing"

// TestRunWithOpticsIntegration couples the arbiter to the SOA gate
// fabric: every grant must be realized by the photonic path within the
// guard budget, with zero mis-selected paths.
func TestRunWithOpticsIntegration(t *testing.T) {
	cfg := DemonstratorConfig()
	cfg.Ports = 16
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, rep, err := s.RunWithOptics(0.7, 200, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if rep.PathErrors != 0 {
		t.Errorf("optical path errors: %d", rep.PathErrors)
	}
	if !rep.GuardOK {
		t.Errorf("SOA settling %v exceeds the %v guard budget", rep.MaxGuard, rep.GuardBudget)
	}
	if rep.SwitchEvents == 0 {
		t.Error("no SOA reconfigurations recorded")
	}
	// At 0.7 load most slots reconfigure something; the rate must be
	// positive and bounded by modules-per-slot.
	maxRate := float64(cfg.Ports * 2)
	if rep.ReconfigsPerSlot <= 0 || rep.ReconfigsPerSlot > maxRate {
		t.Errorf("reconfigs per slot %.2f out of (0, %.0f]", rep.ReconfigsPerSlot, maxRate)
	}
	if rep.Slots == 0 {
		t.Error("OnMatch hook never fired")
	}
}

// TestRunWithOpticsRejectsIdealOQ: the reference switch has no photonics.
func TestRunWithOpticsRejectsIdealOQ(t *testing.T) {
	cfg := DemonstratorConfig()
	cfg.Ports = 16
	cfg.Scheduler = "ideal-oq"
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RunWithOptics(0.5, 10, 10); err == nil {
		t.Error("ideal OQ accepted for an optics-coupled run")
	}
}

// TestOpticsIdleSwitchGoesDark: at zero load the gates settle dark and
// reconfiguration stops.
func TestOpticsIdleSwitchGoesDark(t *testing.T) {
	cfg := DemonstratorConfig()
	cfg.Ports = 16
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := s.RunWithOptics(0, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SwitchEvents != 0 {
		t.Errorf("idle switch reconfigured %d times", rep.SwitchEvents)
	}
}
