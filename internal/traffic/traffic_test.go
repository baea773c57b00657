package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func measureLoad(t *testing.T, g Generator, slots int) float64 {
	t.Helper()
	n := 0
	for s := 0; s < slots; s++ {
		if _, ok := g.Next(uint64(s)); ok {
			n++
		}
	}
	return float64(n) / float64(slots)
}

func TestBernoulliLoad(t *testing.T) {
	for _, load := range []float64{0.1, 0.5, 0.9} {
		g := NewBernoulli(0, 64, load, sim.NewRNG(1))
		got := measureLoad(t, g, 200000)
		if math.Abs(got-load) > 0.01 {
			t.Errorf("load %v: measured %v", load, got)
		}
	}
}

func TestUniformExcludesSelf(t *testing.T) {
	u := Uniform{N: 16}
	rng := sim.NewRNG(2)
	counts := make([]int, 16)
	for i := 0; i < 60000; i++ {
		d := u.Pick(7, 0, rng)
		if d == 7 {
			t.Fatal("uniform pattern picked self")
		}
		counts[d]++
	}
	want := 60000.0 / 15
	for d, c := range counts {
		if d == 7 {
			continue
		}
		if math.Abs(float64(c)-want)/want > 0.08 {
			t.Errorf("destination %d: %d draws, want ~%.0f", d, c, want)
		}
	}
}

func TestHotspotFraction(t *testing.T) {
	h := Hotspot{N: 32, Hot: 3, Fraction: 0.5}
	rng := sim.NewRNG(3)
	hot := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if h.Pick(9, 0, rng) == 3 {
			hot++
		}
	}
	// 50% direct plus uniform residue hitting the hot port ~1/31.
	want := 0.5 + 0.5/31
	if got := float64(hot) / draws; math.Abs(got-want) > 0.01 {
		t.Errorf("hot fraction %v want ~%v", got, want)
	}
}

func TestRandomPermutationProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%31) + 2
		p := NewRandomPermutation(n, sim.NewRNG(seed))
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			d := p.Partner[i]
			if d < 0 || d >= n || seen[d] {
				return false
			}
			seen[d] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomPermutationAvoidsFixedPoints(t *testing.T) {
	p := NewRandomPermutation(16, sim.NewRNG(5))
	for i, v := range p.Partner {
		if i == v {
			t.Errorf("fixed point at %d", i)
		}
	}
}

func TestDiagonalDistribution(t *testing.T) {
	d := Diagonal{N: 8}
	rng := sim.NewRNG(7)
	self, next := 0, 0
	const draws = 90000
	for i := 0; i < draws; i++ {
		switch d.Pick(2, 0, rng) {
		case 2:
			self++
		case 3:
			next++
		default:
			t.Fatal("diagonal picked an invalid destination")
		}
	}
	if got := float64(self) / draws; math.Abs(got-2.0/3) > 0.01 {
		t.Errorf("diagonal 2/3 share: %v", got)
	}
	if got := float64(next) / draws; math.Abs(got-1.0/3) > 0.01 {
		t.Errorf("diagonal 1/3 share: %v", got)
	}
}

func TestOnOffLoadAndBurstiness(t *testing.T) {
	g := NewOnOff(0, 64, 0.5, 16, sim.NewRNG(11))
	const slots = 400000
	arrivals := 0
	runs, runLen := 0, 0
	lastDst, inRun := -1, false
	for s := 0; s < slots; s++ {
		a, ok := g.Next(uint64(s))
		if ok {
			arrivals++
			if !inRun || a.Dst != lastDst {
				runs++
				inRun = true
				lastDst = a.Dst
			}
			runLen++
		} else {
			inRun = false
		}
	}
	load := float64(arrivals) / slots
	if math.Abs(load-0.5) > 0.03 {
		t.Errorf("on/off long-run load %v want 0.5", load)
	}
	meanRun := float64(runLen) / float64(runs)
	if meanRun < 8 {
		t.Errorf("mean burst run %v, want >> 1 for bursty traffic", meanRun)
	}
}

func TestBimodalClasses(t *testing.T) {
	b := NewBimodal(0, 64, 0.6, 0.05, sim.NewRNG(13))
	ctl, data := 0, 0
	const slots = 200000
	for s := 0; s < slots; s++ {
		if a, ok := b.Next(uint64(s)); ok {
			if a.Class == ClassControl {
				ctl++
			} else {
				data++
			}
		}
	}
	if got := float64(ctl) / slots; math.Abs(got-0.05) > 0.005 {
		t.Errorf("control load %v want 0.05", got)
	}
	// Data cells displaced by same-slot control wins are deferred, not
	// dropped, so the offered data load is the full configured 0.6 (the
	// old behaviour lost the colliding ~ctl*data fraction).
	if got := float64(data) / slots; math.Abs(got-0.6) > 0.01 {
		t.Errorf("data load %v want 0.6", got)
	}
}

func TestBuildValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero ports", Config{Kind: KindUniform, N: 0, Load: 0.5}},
		{"load > 1", Config{Kind: KindUniform, N: 4, Load: 1.5}},
		{"unknown kind", Config{Kind: Kind(99), N: 4, Load: 0.5}},
		{"hotspot fraction unset", Config{Kind: KindHotspot, N: 4, Load: 0.5, HotPort: 0}},
		{"hotspot fraction > 1", Config{Kind: KindHotspot, N: 4, Load: 0.5, HotFraction: 1.5}},
		{"hotspot fraction < 0", Config{Kind: KindHotspot, N: 4, Load: 0.5, HotFraction: -0.5}},
		{"hot port >= N", Config{Kind: KindHotspot, N: 4, Load: 0.5, HotFraction: 0.5, HotPort: 4}},
		{"hot port < 0", Config{Kind: KindHotspot, N: 4, Load: 0.5, HotFraction: 0.5, HotPort: -1}},
		{"pareto shape <= 1", Config{Kind: KindParetoOnOff, N: 4, Load: 0.5, ParetoAlpha: 1.0}},
		{"pareto shape NaN", Config{Kind: KindParetoOnOff, N: 4, Load: 0.5, ParetoAlpha: math.NaN()}},
		{"pareto shape +Inf", Config{Kind: KindParetoOnOff, N: 4, Load: 0.5, ParetoAlpha: math.Inf(1)}},
		{"incast fan-in >= N", Config{Kind: KindIncast, N: 4, Load: 0.5, Fanin: 4}},
		{"alltoall one port", Config{Kind: KindAllToAll, N: 1, Load: 0.5}},
		{"ring one port", Config{Kind: KindRingAllReduce, N: 1, Load: 0.5}},
		{"tree one port", Config{Kind: KindTreeAllReduce, N: 1, Load: 0.5}},
		{"trace without Trace", Config{Kind: KindTrace, N: 4}},
	}
	for _, tc := range cases {
		if _, err := Build(tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// buildableKinds returns a valid Config for every generated (non-trace)
// workload kind at the given size and load.
func buildableKinds(n int, load float64) []Config {
	return []Config{
		{Kind: KindUniform, N: n, Load: load, Seed: 1},
		{Kind: KindBursty, N: n, Load: load, Seed: 1},
		{Kind: KindHotspot, N: n, Load: load, HotPort: 0, HotFraction: 0.5, Seed: 1},
		{Kind: KindPermutation, N: n, Load: load, Seed: 1},
		{Kind: KindDiagonal, N: n, Load: load, Seed: 1},
		{Kind: KindBimodal, N: n, Load: load, Seed: 1},
		{Kind: KindIncast, N: n, Load: load, Seed: 1},
		{Kind: KindMMPP, N: n, Load: load, Seed: 1},
		{Kind: KindParetoOnOff, N: n, Load: load, Seed: 1},
		{Kind: KindAllToAll, N: n, Load: load, Seed: 1},
		{Kind: KindRingAllReduce, N: n, Load: load, Seed: 1},
		{Kind: KindTreeAllReduce, N: n, Load: load, Seed: 1},
	}
}

func TestBuildAllKinds(t *testing.T) {
	for _, cfg := range buildableKinds(8, 0.5) {
		gens, err := Build(cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Kind, err)
		}
		if len(gens) != 8 {
			t.Fatalf("%v: %d generators", cfg.Kind, len(gens))
		}
		// Every generator must produce valid, non-self destinations.
		for src, g := range gens {
			for s := 0; s < 2000; s++ {
				if a, ok := g.Next(uint64(s)); ok {
					if a.Dst < 0 || a.Dst >= 8 {
						t.Fatalf("%v: src %d emitted dst %d", cfg.Kind, src, a.Dst)
					}
					// Diagonal deliberately targets output src (a
					// crossbar stress pattern); every other kind obeys
					// the no-self-traffic contract.
					if a.Dst == src && cfg.Kind != KindDiagonal {
						t.Fatalf("%v: src %d emitted self-traffic at slot %d", cfg.Kind, src, s)
					}
				}
			}
		}
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, name := range KindNames() {
		k, err := ParseKind(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k.String() != name {
			t.Errorf("%s parsed to %v", name, k)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("unknown kind name accepted")
	}
}

func TestBuildDeterminism(t *testing.T) {
	cfg := Config{Kind: KindBursty, N: 4, Load: 0.7, Seed: 42}
	g1, _ := Build(cfg)
	g2, _ := Build(cfg)
	for s := 0; s < 5000; s++ {
		for i := range g1 {
			a1, ok1 := g1[i].Next(uint64(s))
			a2, ok2 := g2[i].Next(uint64(s))
			if ok1 != ok2 || a1 != a2 {
				t.Fatalf("same seed diverged at slot %d port %d", s, i)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if KindUniform.String() != "uniform" || KindBimodal.String() != "bimodal" {
		t.Error("kind names wrong")
	}
}
