package traffic

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// measure runs every generator of a built workload for slots slots and
// returns per-port arrival counts plus a destination histogram.
func measureAll(t *testing.T, gens []Generator, slots uint64) (perPort []int, dstCount []int) {
	t.Helper()
	n := len(gens)
	perPort = make([]int, n)
	dstCount = make([]int, n)
	for s := uint64(0); s < slots; s++ {
		for p, g := range gens {
			if a, ok := g.Next(s); ok {
				perPort[p]++
				dstCount[a.Dst]++
			}
		}
	}
	return perPort, dstCount
}

// realizedLoad builds cfg and reports the long-run mean offered load
// per port over slots slots.
func realizedLoad(t *testing.T, cfg Config, slots uint64) float64 {
	t.Helper()
	gens, err := Build(cfg)
	if err != nil {
		t.Fatalf("build %v: %v", cfg.Kind, err)
	}
	perPort, _ := measureAll(t, gens, slots)
	total := 0
	for _, c := range perPort {
		total += c
	}
	return float64(total) / float64(slots) / float64(len(gens))
}

// TestOnOffRealizedLoadPinned is the regression for the OFF-dwell bug:
// the old draw 1+Geometric(1/(1+mi)) had mean mi+1, so a configured
// 0.95 load realized only ~0.90. The fixed source must land within 1%
// (relative) of the configured load at both a moderate and a
// near-saturation point.
func TestOnOffRealizedLoadPinned(t *testing.T) {
	const slots = 1_000_000
	for _, load := range []float64{0.5, 0.95} {
		g := NewOnOff(0, 64, load, 16, sim.NewRNG(11))
		n := 0
		for s := uint64(0); s < slots; s++ {
			if _, ok := g.Next(s); ok {
				n++
			}
		}
		got := float64(n) / slots
		if rel := math.Abs(got-load) / load; rel > 0.01 {
			t.Errorf("load %v: realized %v (%.2f%% off, want within 1%%)", load, got, rel*100)
		}
	}
}

// TestBimodalLoadAccounting is the regression for the displaced-data
// bug: control cells win same-slot ties but must defer, not drop, the
// colliding data arrival, so both sub-process loads are realized in
// full.
func TestBimodalLoadAccounting(t *testing.T) {
	const slots = 400_000
	const dataLoad, ctlLoad = 0.7, 0.1
	b := NewBimodal(0, 64, dataLoad, ctlLoad, sim.NewRNG(17))
	ctl, data := 0, 0
	for s := uint64(0); s < slots; s++ {
		if a, ok := b.Next(s); ok {
			if a.Class == ClassControl {
				ctl++
			} else {
				data++
			}
		}
	}
	if got := float64(ctl) / slots; math.Abs(got-ctlLoad) > 0.005 {
		t.Errorf("control load %v want %v", got, ctlLoad)
	}
	// The old Next dropped the data arrival whenever control won the
	// slot, realizing only dataLoad*(1-ctlLoad) ~ 0.63 here.
	if got := float64(data) / slots; math.Abs(got-dataLoad) > 0.007 {
		t.Errorf("data load %v want %v (displaced cells must defer, not drop)", got, dataLoad)
	}
	if p := b.Pending(); p > 64 {
		t.Errorf("pending backlog %d after a subcritical run", p)
	}
}

// TestHotspotNoSelfTraffic is the regression for the src == Hot bug:
// the hot port itself must never target Hot.
func TestHotspotNoSelfTraffic(t *testing.T) {
	h := Hotspot{N: 16, Hot: 5, Fraction: 0.9}
	rng := sim.NewRNG(23)
	for i := 0; i < 50_000; i++ {
		if d := h.Pick(5, uint64(i), rng); d == 5 {
			t.Fatal("hot port picked itself")
		}
	}
}

// TestRealizedLoadAllKinds checks the package's load-accounting
// contract for every generated kind: the realized long-run load matches
// the kind's documented offered load.
func TestRealizedLoadAllKinds(t *testing.T) {
	const n, load = 16, 0.6
	const slots = 200_000
	for _, cfg := range buildableKinds(n, load) {
		cfg := cfg
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			want := load
			tol := 0.01
			switch cfg.Kind {
			case KindIncast:
				// Load is per active storm port; with the default
				// fan-in of N/4 the per-port long-run average is
				// Load * Fanin / N.
				want = load * float64(n/4) / float64(n)
			case KindTreeAllReduce:
				// Ports are active only while their tree level owns the
				// step; the long-run average depends on tree shape, so
				// only a loose sanity band applies.
				got := realizedLoad(t, cfg, slots)
				if got <= 0 || got >= load {
					t.Errorf("tree-allreduce realized %v, want in (0, %v)", got, load)
				}
				return
			case KindBursty, KindParetoOnOff, KindMMPP:
				tol = 0.02 // burst-scale variance converges slower
			case KindRingAllReduce:
				// Gap quantization: chunk 64 at load 0.6 gives
				// 64/(64+43) = 0.5981...
				want = 64.0 / (64 + math.Round(64*(1-load)/load))
				tol = 0.001
			}
			got := realizedLoad(t, cfg, slots)
			if math.Abs(got-want) > tol {
				t.Errorf("realized %v want %v +- %v", got, want, tol)
			}
		})
	}
}

// TestOnOffBurstMean pins the ON-dwell mean at the configured
// MeanBurst (the ON draw was always correct; this guards it).
func TestOnOffBurstMean(t *testing.T) {
	g := NewOnOff(0, 64, 0.3, 12, sim.NewRNG(31))
	bursts, burstSlots := 0, 0
	inBurst := false
	for s := uint64(0); s < 600_000; s++ {
		_, ok := g.Next(s)
		if ok {
			if !inBurst {
				bursts++
				inBurst = true
			}
			burstSlots++
		} else {
			inBurst = false
		}
	}
	// Observed ON-runs can concatenate when a zero-length OFF draw
	// coalesces bursts, which raises the run mean above MeanBurst by
	// the coalescing factor 1/(1-p0), p0 = P(OFF draw = 0) = 1/(1+mi).
	mi := 12 * (1 - 0.3) / 0.3
	wantRun := 12 * (1 + mi) / mi
	got := float64(burstSlots) / float64(bursts)
	if math.Abs(got-wantRun)/wantRun > 0.05 {
		t.Errorf("mean ON run %v want ~%v", got, wantRun)
	}
}

// TestMMPPMoments checks the two-state modulated source: long-run load
// exact, high/low rate split as derived, dwell means near MeanDwell.
func TestMMPPMoments(t *testing.T) {
	const load, dwell = 0.3, 32.0
	g := NewMMPP(0, 64, load, dwell, sim.NewRNG(37))
	if g.HighRate != 0.6 || g.LowRate != 0 {
		t.Fatalf("rate split hi=%v lo=%v, want 0.6/0", g.HighRate, g.LowRate)
	}
	arr := 0
	const slots = 500_000
	for s := uint64(0); s < slots; s++ {
		if _, ok := g.Next(s); ok {
			arr++
		}
	}
	if got := float64(arr) / slots; math.Abs(got-load) > 0.01 {
		t.Errorf("mmpp load %v want %v", got, load)
	}
	// Above load 0.5 the high state saturates at 1 cell/slot.
	sat := NewMMPP(0, 64, 0.8, dwell, sim.NewRNG(38))
	if sat.HighRate != 1 || math.Abs(sat.LowRate-0.6) > 1e-12 {
		t.Errorf("saturated split hi=%v lo=%v, want 1/0.6", sat.HighRate, sat.LowRate)
	}
}

// TestParetoOnOffMoments checks the heavy-tail source: realized load
// within tolerance (the OFF dwell is derived from the discretized burst
// mean, so the load equation is exact in expectation) and the empirical
// burst mean near paretoCeilMean.
func TestParetoOnOffMoments(t *testing.T) {
	const load = 0.5
	g := NewParetoOnOff(0, 64, load, 16, 1.5, sim.NewRNG(41))
	wantMean := paretoCeilMean(g.Xm, g.Alpha)
	if wantMean < 16 || wantMean > 18 {
		t.Fatalf("discretized burst mean %v implausible for target 16", wantMean)
	}
	arr := 0
	const slots = 2_000_000 // heavy tails need a long window
	for s := uint64(0); s < slots; s++ {
		if _, ok := g.Next(s); ok {
			arr++
		}
	}
	if got := float64(arr) / slots; math.Abs(got-load) > 0.03 {
		t.Errorf("pareto load %v want %v", got, load)
	}
}

// TestParetoCeilMeanMatchesSampling cross-checks the analytic
// discretized mean against direct Monte-Carlo sampling of drawBurst.
func TestParetoCeilMeanMatchesSampling(t *testing.T) {
	g := NewParetoOnOff(0, 8, 0.5, 16, 1.5, sim.NewRNG(43))
	want := paretoCeilMean(g.Xm, g.Alpha)
	sum := 0.0
	const draws = 2_000_000
	for i := 0; i < draws; i++ {
		sum += float64(g.drawBurst())
	}
	got := sum / draws
	// Infinite-variance territory: allow a wide band, the point is to
	// catch a wrong formula (off by the old +1 bug class), not noise.
	if math.Abs(got-want)/want > 0.10 {
		t.Errorf("sampled burst mean %v, analytic %v", got, want)
	}
}

// TestHotspotDestinationMarginal checks the full destination marginal
// of a built hotspot workload: the hot port receives its direct
// fraction plus the uniform residue, everyone else splits the rest.
func TestHotspotDestinationMarginal(t *testing.T) {
	const n = 16
	gens, err := Build(Config{Kind: KindHotspot, N: n, Load: 0.8, HotPort: 3, HotFraction: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, dst := measureAll(t, gens, 100_000)
	total := 0
	for _, c := range dst {
		total += c
	}
	// Each of the N-1 non-hot ports hits Hot with probability
	// 0.5 + 0.5/(N-1); the hot port itself never does.
	hotShare := float64(dst[3]) / float64(total)
	wantHot := (0.5 + 0.5/float64(n-1)) * float64(n-1) / float64(n)
	if math.Abs(hotShare-wantHot) > 0.02 {
		t.Errorf("hot destination share %v want ~%v", hotShare, wantHot)
	}
}

// TestDiagonalDestinationMarginal checks the built diagonal workload's
// marginal: output i receives 2/3 from port i and 1/3 from port i-1.
func TestDiagonalDestinationMarginal(t *testing.T) {
	const n = 8
	gens, err := Build(Config{Kind: KindDiagonal, N: n, Load: 0.9, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	_, dst := measureAll(t, gens, 100_000)
	total := 0
	for _, c := range dst {
		total += c
	}
	for d, c := range dst {
		if got := float64(c) / float64(total); math.Abs(got-1.0/n) > 0.01 {
			t.Errorf("diagonal marginal at %d: %v want %v", d, got, 1.0/n)
		}
	}
}

// TestPermutationDestinationMarginal: under the random permutation
// Build draws, every input sends to one fixed partner, no two inputs
// share a partner, and every output receives exactly its one input's
// count.
func TestPermutationDestinationMarginal(t *testing.T) {
	const n = 16
	gens, err := Build(Config{Kind: KindPermutation, N: n, Load: 0.7, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	partner := make([]int, n)
	for i := range partner {
		partner[i] = -1
	}
	perPort := make([]int, n)
	dst := make([]int, n)
	for s := uint64(0); s < 50_000; s++ {
		for i, g := range gens {
			a, ok := g.Next(s)
			if !ok {
				continue
			}
			if partner[i] < 0 {
				partner[i] = a.Dst
			} else if a.Dst != partner[i] {
				t.Fatalf("port %d sent to %d after %d", i, a.Dst, partner[i])
			}
			perPort[i]++
			dst[a.Dst]++
		}
	}
	seen := make([]bool, n)
	for i, d := range partner {
		if d < 0 || seen[d] {
			t.Fatalf("port %d: partner %d missing or shared", i, d)
		}
		seen[d] = true
		if dst[d] != perPort[i] {
			t.Errorf("port %d: sent %d, partner %d received %d", i, perPort[i], d, dst[d])
		}
	}
}

// TestIncastMoments checks the fan-in storm: only the victim receives,
// storm ports offer Load while storming, and the victim rotates.
func TestIncastMoments(t *testing.T) {
	const n, fanin, load = 8, 3, 0.9
	const epoch = 128
	gens, err := Build(Config{Kind: KindIncast, N: n, Load: load, Fanin: fanin, EpochSlots: epoch, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	// One full rotation: n epochs.
	victims := make(map[int]bool)
	arrivals := 0
	for s := uint64(0); s < n*epoch; s++ {
		wantVictim := int((s / epoch) % n)
		for p, g := range gens {
			a, ok := g.Next(s)
			if !ok {
				continue
			}
			arrivals++
			if a.Dst != wantVictim {
				t.Fatalf("slot %d: port %d hit %d, want victim %d", s, p, a.Dst, wantVictim)
			}
			if p == wantVictim {
				t.Fatalf("victim %d stormed itself", p)
			}
			victims[a.Dst] = true
		}
	}
	if len(victims) != n {
		t.Errorf("rotation covered %d victims, want %d", len(victims), n)
	}
	want := float64(n*epoch) * fanin * load
	if got := float64(arrivals); math.Abs(got-want)/want > 0.05 {
		t.Errorf("storm arrivals %v want ~%v", got, want)
	}
}

// TestAllToAllSchedule checks the phased exchange: within a phase the
// destination is fixed, across N-1 phases every partner is visited.
func TestAllToAllSchedule(t *testing.T) {
	const n = 8
	const phase = 32
	g := NewAllToAll(2, n, phase, 1.0, sim.NewRNG(29))
	seen := make(map[int]bool)
	for s := uint64(0); s < (n-1)*phase; s++ {
		a, ok := g.Next(s)
		if !ok {
			t.Fatalf("load-1 alltoall idle at slot %d", s)
		}
		wantDst := (2 + 1 + int((s/phase)%(n-1))) % n
		if a.Dst != wantDst {
			t.Fatalf("slot %d: dst %d want %d", s, a.Dst, wantDst)
		}
		seen[a.Dst] = true
	}
	if len(seen) != n-1 {
		t.Errorf("visited %d partners, want %d", len(seen), n-1)
	}
}

// TestRingAllReduceSchedule checks the deterministic ring cadence: dst
// always the ring successor, duty cycle chunk/(chunk+gap).
func TestRingAllReduceSchedule(t *testing.T) {
	g := NewRingAllReduce(3, 8, 64, 0.5)
	if g.GapSlots != 64 {
		t.Fatalf("gap %d want 64 at load 0.5", g.GapSlots)
	}
	active := 0
	const slots = 12_800
	for s := uint64(0); s < slots; s++ {
		a, ok := g.Next(s)
		if !ok {
			continue
		}
		active++
		if a.Dst != 4 {
			t.Fatalf("ring dst %d want 4", a.Dst)
		}
	}
	if got := float64(active) / slots; got != 0.5 {
		t.Errorf("ring duty cycle %v want exactly 0.5", got)
	}
}

// TestTreeAllReduceSchedule checks the sweep structure: reduce steps
// send only to parents (deepest level first), broadcast steps only to
// children, and the root is the last reduce step's sole target.
func TestTreeAllReduceSchedule(t *testing.T) {
	const n = 8 // levels 0..3, depth 3
	const phase = 16
	gens, err := Build(Config{Kind: KindTreeAllReduce, N: n, Load: 1.0, PhaseSlots: phase, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	depth := treeLevel(n - 1)
	if depth != 3 {
		t.Fatalf("depth %d want 3", depth)
	}
	for s := uint64(0); s < uint64(2*depth)*phase; s++ {
		step := int((s / phase) % uint64(2*depth))
		for p, g := range gens {
			a, ok := g.Next(s)
			if !ok {
				continue
			}
			if step < depth {
				if treeLevel(p) != depth-step {
					t.Fatalf("reduce step %d: port %d (level %d) active", step, p, treeLevel(p))
				}
				if a.Dst != (p-1)/2 {
					t.Fatalf("reduce step %d: port %d sent to %d, want parent %d", step, p, a.Dst, (p-1)/2)
				}
			} else {
				if treeLevel(p) != step-depth {
					t.Fatalf("broadcast step %d: port %d (level %d) active", step, p, treeLevel(p))
				}
				if a.Dst != 2*p+1 && a.Dst != 2*p+2 {
					t.Fatalf("broadcast step %d: port %d sent to %d, want a child", step, p, a.Dst)
				}
			}
		}
	}
}

// TestParetoCeilMeanMemoBitExact pins the memo to the direct sum: the
// first and the repeated lookup both return paretoCeilSum's exact bits,
// for the default shape (whose sum runs all paretoBurstCap terms) and a
// steeper one (whose tail bound cuts the sum short).
func TestParetoCeilMeanMemoBitExact(t *testing.T) {
	for _, c := range []struct{ xm, alpha float64 }{{16.0 / 3, 1.5}, {8, 1.9}, {1, 2}} {
		want := math.Float64bits(paretoCeilSum(c.xm, c.alpha))
		for i := 0; i < 2; i++ {
			if got := math.Float64bits(paretoCeilMean(c.xm, c.alpha)); got != want {
				t.Fatalf("xm=%v alpha=%v lookup %d: bits %#x, direct sum %#x", c.xm, c.alpha, i, got, want)
			}
		}
	}
}
