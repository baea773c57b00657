// Config and Build: the named-workload surface the experiment
// harnesses, cmds, and trace recorder build per-port generator sets
// through.

package traffic

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Config names a workload so experiment harnesses can build per-port
// generator sets uniformly.
type Config struct {
	Kind         Kind
	N            int     // port count
	Load         float64 // offered load per port, cells/slot
	ControlShare float64 // fraction of control cells (Bernoulli kinds)
	MeanBurst    float64 // OnOff/MMPP/Pareto mean burst (dwell) length in slots
	HotFraction  float64 // Hotspot fraction, required in (0, 1] for KindHotspot
	HotPort      int     // Hotspot target, in [0, N)
	Fanin        int     // Incast storm senders per epoch (0 = N/4, clamped to [1, N-1])
	EpochSlots   uint64  // Incast epoch length in slots (0 = 512)
	PhaseSlots   uint64  // collective phase/chunk length in slots (0 = 64)
	ParetoAlpha  float64 // Pareto shape for KindParetoOnOff (0 = 1.5; must be > 1)
	Trace        *Trace  // recorded workload for KindTrace
	Seed         uint64
}

// Kind enumerates the built-in workload families.
type Kind uint8

// Workload families.
const (
	KindUniform Kind = iota
	KindBursty
	KindHotspot
	KindPermutation
	KindDiagonal
	KindBimodal
	KindIncast
	KindMMPP
	KindParetoOnOff
	KindAllToAll
	KindRingAllReduce
	KindTreeAllReduce
	KindTrace
)

// kindNames maps every Kind to its canonical flag/report name, in Kind
// order.
var kindNames = [...]string{
	"uniform", "bursty", "hotspot", "permutation", "diagonal", "bimodal",
	"incast", "mmpp", "pareto", "alltoall", "ring-allreduce", "tree-allreduce",
	"trace",
}

// String names the workload kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindNames lists the canonical names of all built-in workload kinds,
// in Kind order.
func KindNames() []string {
	out := make([]string, len(kindNames))
	copy(out, kindNames[:])
	return out
}

// ParseKind resolves a canonical workload name (as printed by
// Kind.String) back to its Kind.
func ParseKind(name string) (Kind, error) {
	for i, kn := range kindNames {
		if kn == name {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("traffic: unknown workload kind %q (known: %v)", name, kindNames)
}

// Build constructs one generator per port for the named workload.
func Build(cfg Config) ([]Generator, error) {
	if cfg.Kind == KindTrace {
		if cfg.Trace == nil {
			return nil, fmt.Errorf("traffic: KindTrace needs Config.Trace")
		}
		if cfg.N != 0 && cfg.N != cfg.Trace.N {
			return nil, fmt.Errorf("traffic: trace has %d ports, config wants %d", cfg.Trace.N, cfg.N)
		}
		return cfg.Trace.Generators(), nil
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("traffic: invalid port count %d", cfg.N)
	}
	if cfg.Load < 0 || cfg.Load > 1 {
		return nil, fmt.Errorf("traffic: load %v out of [0,1]", cfg.Load)
	}
	mb := cfg.MeanBurst
	if mb == 0 {
		mb = 16
	}
	phase := cfg.PhaseSlots
	if phase == 0 {
		phase = 64
	}
	switch cfg.Kind {
	case KindHotspot:
		// Validated, not defaulted: the old silent 0 -> 0.5 fraction
		// default hid misconfigured hotspots (and a fraction of exactly
		// 0 is just uniform traffic wearing a hotspot label).
		if cfg.HotFraction <= 0 || cfg.HotFraction > 1 {
			return nil, fmt.Errorf("traffic: hotspot fraction %v out of (0,1] (set HotFraction explicitly; there is no default)", cfg.HotFraction)
		}
		if cfg.HotPort < 0 || cfg.HotPort >= cfg.N {
			return nil, fmt.Errorf("traffic: hot port %d out of [0,%d)", cfg.HotPort, cfg.N)
		}
	case KindParetoOnOff:
		// Negated so NaN is refused too; +Inf would make the scale NaN.
		if cfg.ParetoAlpha != 0 && (!(cfg.ParetoAlpha > 1) || math.IsInf(cfg.ParetoAlpha, 1)) {
			return nil, fmt.Errorf("traffic: pareto shape %v must be finite and > 1 for a finite mean burst", cfg.ParetoAlpha)
		}
	case KindAllToAll, KindRingAllReduce, KindTreeAllReduce:
		if cfg.N < 2 {
			return nil, fmt.Errorf("traffic: %v needs at least 2 ports", cfg.Kind)
		}
	case KindIncast:
		if cfg.Fanin < 0 || cfg.Fanin >= cfg.N {
			return nil, fmt.Errorf("traffic: incast fan-in %d out of [1,%d)", cfg.Fanin, cfg.N)
		}
	}
	fanin := cfg.Fanin
	if fanin == 0 {
		fanin = cfg.N / 4
		if fanin < 1 {
			fanin = 1
		}
	}
	epoch := cfg.EpochSlots
	if epoch == 0 {
		epoch = 512
	}
	alpha := cfg.ParetoAlpha
	if alpha == 0 {
		alpha = 1.5
	}
	root := sim.NewRNG(cfg.Seed)
	gens := make([]Generator, cfg.N)
	var perm Permutation
	if cfg.Kind == KindPermutation {
		perm = NewRandomPermutation(cfg.N, root.Fork(9999))
	}
	// The discretized Pareto burst mean is an O(paretoBurstCap) sum;
	// compute it once and share it across ports (the Build-time state
	// of a fresh ParetoOnOff is all zero, so a copy is a clean clone).
	var paretoProto *ParetoOnOff
	for i := 0; i < cfg.N; i++ {
		rng := root.Fork(uint64(i) + 1)
		switch cfg.Kind {
		case KindUniform:
			b := NewBernoulli(i, cfg.N, cfg.Load, rng)
			b.ControlShare = cfg.ControlShare
			gens[i] = b
		case KindBursty:
			gens[i] = NewOnOff(i, cfg.N, cfg.Load, mb, rng)
		case KindHotspot:
			b := NewBernoulli(i, cfg.N, cfg.Load, rng)
			b.Pattern = Hotspot{N: cfg.N, Hot: cfg.HotPort, Fraction: cfg.HotFraction}
			gens[i] = b
		case KindPermutation:
			b := NewBernoulli(i, cfg.N, cfg.Load, rng)
			b.Pattern = perm
			gens[i] = b
		case KindDiagonal:
			b := NewBernoulli(i, cfg.N, cfg.Load, rng)
			b.Pattern = Diagonal{cfg.N}
			gens[i] = b
		case KindBimodal:
			cs := cfg.ControlShare
			if cs == 0 {
				cs = 0.05
			}
			gens[i] = NewBimodal(i, cfg.N, cfg.Load*(1-cs), cfg.Load*cs, rng)
		case KindIncast:
			gens[i] = NewIncast(i, cfg.N, fanin, epoch, cfg.Load, rng)
		case KindMMPP:
			gens[i] = NewMMPP(i, cfg.N, cfg.Load, mb, rng)
		case KindParetoOnOff:
			if paretoProto == nil {
				paretoProto = NewParetoOnOff(i, cfg.N, cfg.Load, mb, alpha, rng)
				gens[i] = paretoProto
			} else {
				g := *paretoProto
				g.Src = i
				g.RNG = rng
				gens[i] = &g
			}
		case KindAllToAll:
			gens[i] = NewAllToAll(i, cfg.N, phase, cfg.Load, rng)
		case KindRingAllReduce:
			gens[i] = NewRingAllReduce(i, cfg.N, phase, cfg.Load)
		case KindTreeAllReduce:
			gens[i] = NewTreeAllReduce(i, cfg.N, phase, cfg.Load, rng)
		default:
			return nil, fmt.Errorf("traffic: unknown kind %v", cfg.Kind)
		}
	}
	return gens, nil
}
