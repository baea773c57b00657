package power

import (
	"math"
	"testing"

	"repro/internal/units"
)

// TestStageCounts reproduces §VI.C exactly: a 2048-port fabric needs 3
// OSMOSIS (64-port) stages, 5 high-end electronic (32-port) stages, and
// 9 commodity (8-port) stages.
func TestStageCounts(t *testing.T) {
	cases := []struct {
		radix, wantStages int
	}{
		{64, 3},
		{32, 5},
		{8, 9},
	}
	for _, c := range cases {
		p, err := PlanFabric(2048, c.radix, units.IB12xQDRPortRate)
		if err != nil {
			t.Fatal(err)
		}
		if p.Stages != c.wantStages {
			t.Errorf("radix %d: %d stages, paper says %d", c.radix, p.Stages, c.wantStages)
		}
	}
	// 12-port commodity switches land at 7 stages (between the paper's
	// 8-to-12 range endpoints).
	p, _ := PlanFabric(2048, 12, units.IB12xQDRPortRate)
	if p.Stages != 7 {
		t.Errorf("radix 12: %d stages, want 7", p.Stages)
	}
}

func TestOEOSavings(t *testing.T) {
	// §VI.C: OSMOSIS saves two layers of OEO conversions versus the
	// high-end electronic fat tree.
	osm, _ := PlanFabric(2048, 64, units.IB12xQDRPortRate)
	elec, _ := PlanFabric(2048, 32, units.IB12xQDRPortRate)
	if elec.OEOLayers-osm.OEOLayers != 2 {
		t.Errorf("OEO layer saving %d, paper says 2", elec.OEOLayers-osm.OEOLayers)
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := PlanFabric(0, 64, units.OSMOSISPortRate); err == nil {
		t.Error("zero ports accepted")
	}
	if _, err := PlanFabric(100, 1, units.OSMOSISPortRate); err == nil {
		t.Error("radix 1 accepted")
	}
	if _, err := PlanFabric(1<<40, 4, units.OSMOSISPortRate); err == nil {
		t.Error("absurd fabric accepted")
	}
}

func TestPlanSmallFabric(t *testing.T) {
	p, err := PlanFabric(64, 64, units.OSMOSISPortRate)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stages != 1 || p.Switches != 1 {
		t.Errorf("64-port fabric from 64-port switch: %+v", p)
	}
	if p.InterStageLinks != 0 {
		t.Errorf("single stage should need no inter-stage cables, got %d", p.InterStageLinks)
	}
}

func TestCMOSPowerScalesWithDataRate(t *testing.T) {
	// §I: CMOS power consumption is proportional to the data rate.
	low := DefaultCMOS(32, 10*units.GigabitPerSecond)
	high := DefaultCMOS(32, 40*units.GigabitPerSecond)
	dLow := low.Power() - low.StaticW
	dHigh := high.Power() - high.StaticW
	if math.Abs(dHigh/dLow-4) > 1e-9 {
		t.Errorf("dynamic power ratio %v for a 4x rate increase", dHigh/dLow)
	}
}

func TestOpticalPowerIndependentOfDataRate(t *testing.T) {
	// §I: optical switch element power is independent of the data rate;
	// control power is proportional to the packet rate.
	a := DefaultOptical(64, 2, 8, 10*units.GigabitPerSecond)
	b := DefaultOptical(64, 2, 8, 200*units.GigabitPerSecond)
	const pps = 19.5e6 // cells per second per port at 51.2 ns
	if a.Power(pps) != b.Power(pps) {
		t.Errorf("optical power changed with data rate: %v vs %v", a.Power(pps), b.Power(pps))
	}
	// Control power is linear in packet rate.
	p1 := a.Power(1e6)
	p2 := a.Power(2e6)
	p3 := a.Power(3e6)
	if math.Abs((p3-p2)-(p2-p1)) > 1e-9 {
		t.Error("control power not linear in packet rate")
	}
}

func TestOpticalWinsAtHighRate(t *testing.T) {
	// The crossover argument: at HPC rates the optical stage burns less
	// than the electronic stage of equal aggregate bandwidth.
	rate := units.OSMOSISPortRate
	cmos := DefaultCMOS(64, rate)
	opt := DefaultOptical(64, 2, 8, rate)
	const pps = 19.5e6
	if opt.Power(pps) >= cmos.Power() {
		t.Errorf("optical %v W should undercut CMOS %v W at 40 Gb/s ports",
			opt.Power(pps), cmos.Power())
	}
	// At very low rates CMOS can be cheaper (the advantage is rate-driven).
	slowCmos := DefaultCMOS(64, 1*units.GigabitPerSecond)
	if opt.Power(pps) >= slowCmos.Power() {
		t.Logf("note: optical %v W vs slow CMOS %v W", opt.Power(pps), slowCmos.Power())
	}
}

func TestAggregates(t *testing.T) {
	c := DefaultCMOS(32, units.IB12xQDRPortRate)
	if got := c.Aggregate().TbPerSecond(); math.Abs(got-3.072) > 1e-9 {
		t.Errorf("32x96G aggregate %v Tb/s", got)
	}
	o := DefaultOptical(64, 2, 8, 40*units.GigabitPerSecond)
	if o.SOACount != 128*16 {
		t.Errorf("SOA count %d", o.SOACount)
	}
}

func TestFabricPowerComparison(t *testing.T) {
	// Fabric-level: hybrid should beat electronic for 2048 ports at IB
	// 12x QDR rates (fewer stages AND cheaper switches).
	rate := units.IB12xQDRPortRate
	elecPlan, _ := PlanFabric(2048, 32, rate)
	elec := elecPlan.ElectronicFabricPower(DefaultCMOS(32, rate), DefaultTransceiver())
	osmPlan, _ := PlanFabric(2048, 64, rate)
	hybrid := osmPlan.HybridFabricPower(DefaultOptical(64, 2, 8, rate), DefaultTransceiver(), 19.5e6)
	if hybrid >= elec {
		t.Errorf("hybrid fabric %v W should undercut electronic %v W", hybrid, elec)
	}
	t.Logf("2048-port fabric power: hybrid %.0f W vs electronic %.0f W", hybrid, elec)
}

func TestTransceiverPower(t *testing.T) {
	tr := DefaultTransceiver()
	if got := tr.Power(40 * units.GigabitPerSecond); math.Abs(got-6) > 1e-9 {
		t.Errorf("40G transceiver %v W", got)
	}
}

// TestParallelPlanes quantifies the §I claim: parallel electronic
// planes can always reach the bandwidth, at a multiplied cost.
func TestParallelPlanes(t *testing.T) {
	// 2048 ports at IB 12x QDR striped over 10 Gb/s-lane planes.
	pp, err := PlanesFor(2048, 32, units.IB12xQDRPortRate, 10*units.GigabitPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Planes != 10 {
		t.Errorf("planes %d, want ceil(96/10) = 10", pp.Planes)
	}
	if pp.Switches != 10*pp.PerPlane.Switches {
		t.Errorf("switch totals inconsistent: %d", pp.Switches)
	}
	if pp.Cables != 10*pp.PerPlane.InterStageLinks {
		t.Errorf("cable totals inconsistent: %d", pp.Cables)
	}
	// The multi-plane power must exceed the single high-rate electronic
	// fabric (static floors and OEO multiply) and dwarf the hybrid.
	tr := DefaultTransceiver()
	multi := pp.Power(DefaultCMOS(32, 10*units.GigabitPerSecond), tr)
	single, err := PlanFabric(2048, 32, units.IB12xQDRPortRate)
	if err != nil {
		t.Fatal(err)
	}
	singleW := single.ElectronicFabricPower(DefaultCMOS(32, units.IB12xQDRPortRate), tr)
	if multi <= singleW {
		t.Errorf("10-plane fabric %v W should cost more than one high-rate fabric %v W", multi, singleW)
	}
	osm, err := PlanFabric(2048, 64, units.IB12xQDRPortRate)
	if err != nil {
		t.Fatal(err)
	}
	hybrid := osm.HybridFabricPower(DefaultOptical(64, 2, 8, units.IB12xQDRPortRate), tr, 46.9e6)
	if multi <= hybrid {
		t.Errorf("multi-plane electronic %v W should dwarf the hybrid %v W", multi, hybrid)
	}
	t.Logf("2048-port: 10-plane electronic %.0f W, single electronic %.0f W, hybrid %.0f W",
		multi, singleW, hybrid)
}

func TestPlanesForValidation(t *testing.T) {
	if _, err := PlanesFor(128, 32, 0, units.OSMOSISPortRate); err == nil {
		t.Error("zero port rate accepted")
	}
	pp, err := PlanesFor(128, 32, 10*units.GigabitPerSecond, 40*units.GigabitPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Planes != 1 {
		t.Errorf("over-provisioned lane should need 1 plane, got %d", pp.Planes)
	}
}
