package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/traffic"
	"repro/internal/units"
)

func TestDemonstratorSystemBuilds(t *testing.T) {
	s, err := NewSystem(DemonstratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.WorstMargin <= 0 {
		t.Errorf("optical margin %v", s.WorstMargin)
	}
	if s.Crossbar.Modules() != 128 {
		t.Errorf("modules %d", s.Crossbar.Modules())
	}
	if s.Config().Ports != 64 {
		t.Errorf("ports %d", s.Config().Ports)
	}
}

// TestBuildSchedulerKinds: NewSystem accepts every sched.Factory name,
// "" and ideal-oq, and rejects anything else; only ideal-oq derives a
// switch without an arbiter.
func TestBuildSchedulerKinds(t *testing.T) {
	for _, name := range append([]string{"", "ideal-oq"}, sched.Names...) {
		cfg := DemonstratorConfig()
		cfg.Ports = 16
		cfg.Scheduler = name
		s, err := NewSystem(cfg)
		if err != nil {
			t.Errorf("%q: %v", name, err)
			continue
		}
		sc := s.SwitchConfig()
		if ideal := name == "ideal-oq"; sc.IdealOQ != ideal || (sc.NewScheduler == nil) != ideal {
			t.Errorf("%q: IdealOQ %v with factory %v", name, sc.IdealOQ, sc.NewScheduler != nil)
		}
	}
	cfg := DemonstratorConfig()
	cfg.Scheduler = "nonsense"
	if _, err := NewSystem(cfg); err == nil || !strings.Contains(err.Error(), "ideal-oq") {
		t.Errorf("unknown kind: %v", err)
	}
}

func TestRunUniformSmoke(t *testing.T) {
	cfg := DemonstratorConfig()
	cfg.Ports = 16
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.RunUniform(0.5, 300, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Delivered == 0 || m.OrderViolations != 0 {
		t.Errorf("delivered=%d violations=%d", m.Delivered, m.OrderViolations)
	}
}

func TestVerifyTable1(t *testing.T) {
	// The ASIC-target configuration must pass every Table-1 check.
	cfg := DemonstratorConfig()
	cfg.Ports = 32
	cfg.Format = ASICTargetFormat()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sat, err := s.RunUniform(0.99, 1500, 6000)
	if err != nil {
		t.Fatal(err)
	}
	light, err := s.RunUniform(0.05, 300, 2000)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Verify(Table1(), sat, light.Latency.Mean(), 2048)
	if !rep.Pass() {
		t.Errorf("Table 1 verification failed: %v\n%s", rep.Failed(), rep)
	}
	if !strings.Contains(rep.String(), "PASS") {
		t.Error("report rendering broken")
	}
}

func TestVerifyDemonstratorCompromises(t *testing.T) {
	// The FPGA demonstrator's 40 Gb/s ports fall short of the 12 GByte/s
	// requirement — the paper admits this compromise; Verify must
	// surface it rather than hide it.
	cfg := DemonstratorConfig()
	cfg.Ports = 32
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sat, err := s.RunUniform(0.99, 1000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Verify(Table1(), sat, 150*units.Nanosecond, 2048)
	failed := rep.Failed()
	foundBW := false
	for _, f := range failed {
		if f == "port bandwidth" {
			foundBW = true
		} else {
			t.Errorf("unexpected failing check: %s", f)
		}
	}
	if !foundBW {
		t.Error("demonstrator port-bandwidth compromise not flagged")
	}
}

func TestSingleStageLatencyExceedsBudget(t *testing.T) {
	// The Fig.-1 argument: in a 50 m room, 2 RTT alone is 1000 ns,
	// blowing the 500 ns fabric budget — hence multistage.
	b := SingleStageCentralLatency(50, 100*units.Nanosecond, 51200*units.Picosecond)
	if b.RTT != 250*units.Nanosecond {
		t.Errorf("RTT %v, want 250ns for a 50m room (hosts at radius 25m)", b.RTT)
	}
	if b.Total <= FabricLatencyBudget {
		t.Errorf("single-stage latency %v should exceed the %v budget", b.Total, FabricLatencyBudget)
	}
}

func TestMultistageLatencyFitsBudget(t *testing.T) {
	// A 3-stage fabric with ~65 ns per stage plus one room crossing
	// stays within the 500 ns budget — the paper's architecture point.
	// Half the budget goes to the switches.
	perStage := FabricLatencyBudget / 2 / 3
	got := MultistageLatency(3, perStage-51200*units.Picosecond, 51200*units.Picosecond, 50)
	if got > FabricLatencyBudget {
		t.Errorf("multistage latency %v exceeds budget %v", got, FabricLatencyBudget)
	}
	// And it must beat the single-stage alternative.
	single := SingleStageCentralLatency(50, 100*units.Nanosecond, 51200*units.Picosecond)
	if got >= single.Total {
		t.Errorf("multistage %v should beat single-stage %v", got, single.Total)
	}
}

func TestStoreAndForwardPenaltyTiny(t *testing.T) {
	// §IV: 64 B at 12 GByte/s stores in 5.33 ns, negligible vs 250 ns.
	p := StoreAndForwardPenalty(64, units.IB12xQDRPortRate)
	if math.Abs(p.Nanoseconds()-5.33) > 0.01 {
		t.Errorf("store-and-forward penalty %v, paper says 5.33 ns", p)
	}
	if float64(p) > 0.05*float64(250*units.Nanosecond) {
		t.Error("penalty should be negligible against the cable budget")
	}
}

// outlookScale is the §VII claim: 256 ports at 200 Gb/s in one stage.
func outlookScale(t *testing.T) ScalePoint {
	t.Helper()
	p, err := NewScalePoint(16, 16, 200*units.GigabitPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// electronicLimit is the §VII single-stage electronic ceiling: 6-8 Tb/s
// aggregate given pin counts and CMOS speeds.
const electronicLimit = 8 * units.TerabitPerSecond

func TestScalingEnvelope(t *testing.T) {
	demo := DemonstratorScale()
	if demo.Ports != 64 || demo.Aggregate.TbPerSecond() != 2.56 {
		t.Errorf("demonstrator scale %+v", demo)
	}
	if demo.SchedulerIterations != 6 {
		t.Errorf("demonstrator iterations %d", demo.SchedulerIterations)
	}
	out := outlookScale(t)
	if out.Ports != 256 {
		t.Errorf("outlook ports %d", out.Ports)
	}
	// §VII: "can scale to at least 50 Tb/s aggregate per stage".
	if out.Aggregate.TbPerSecond() < 50 {
		t.Errorf("outlook aggregate %v below 50 Tb/s", out.Aggregate)
	}
	if out.Aggregate <= electronicLimit {
		t.Error("outlook must exceed the 6-8 Tb/s electronic ceiling")
	}
	if demo.Aggregate > electronicLimit {
		t.Error("the demonstrator (2.56 Tb/s) is within electronic reach; the claim is about scaling")
	}
}

func TestFLPPRSpeedupNeeded(t *testing.T) {
	out := outlookScale(t)
	// §VII: an ASIC mapping speeds the scheduler up by at least 4x; the
	// FLPPR parallelism must then be achievable (bounded, positive).
	k := out.FLPPRSpeedupNeeded(4)
	if k < out.SchedulerIterations {
		t.Errorf("sub-scheduler count %d cannot be below the iteration need %d at a shorter cell time",
			k, out.SchedulerIterations)
	}
	if k > 64 {
		t.Errorf("sub-scheduler count %d implausibly high", k)
	}
	// More ASIC speedup means fewer sub-schedulers.
	if out.FLPPRSpeedupNeeded(8) > k {
		t.Error("speedup should reduce the required parallelism")
	}
}

func TestNewScalePointValidation(t *testing.T) {
	if _, err := NewScalePoint(0, 8, units.OSMOSISPortRate); err == nil {
		t.Error("zero colors accepted")
	}
	if _, err := NewScalePoint(8, 8, 0); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestRunWorkloadKinds(t *testing.T) {
	cfg := DemonstratorConfig()
	cfg.Ports = 16
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []traffic.Kind{traffic.KindBursty, traffic.KindHotspot, traffic.KindBimodal} {
		// Hotspot no longer has a silent default fraction; configure one.
		m, err := s.RunWorkload(traffic.Config{Kind: k, Load: 0.4, HotFraction: 0.5}, 200, 1000)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if m.OrderViolations != 0 {
			t.Errorf("%v: order violations %d", k, m.OrderViolations)
		}
	}
}

func TestASICTargetFormat(t *testing.T) {
	f := ASICTargetFormat()
	if f.LineRate != units.IB12xQDRPortRate {
		t.Errorf("ASIC format rate %v", f.LineRate)
	}
	if eff := f.EffectiveUserBandwidthFraction(); eff < 0.75 {
		t.Errorf("ASIC format effective bandwidth %.3f must meet Table 1", eff)
	}
}
