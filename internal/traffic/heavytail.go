// Heavy-tail sources: the Markov-modulated and Pareto on/off processes
// the AI-workload literature uses where geometric bursts are too tame.
// Both honour the package load-accounting contract exactly: the long-run
// offered load equals the configured Load in expectation.

package traffic

import (
	"math"
	"sync"

	"repro/internal/sim"
)

// MMPP is a two-state Markov-modulated Bernoulli process (the slotted
// discrete-time analogue of the classic MMPP): the source alternates
// between a high-rate and a low-rate state, each dwelt in for a
// geometric time with mean MeanDwell, and emits an i.i.d. Bernoulli
// arrival at the state's rate. Destinations are drawn per arrival from
// the Pattern (unlike OnOff's burst-constant destination), so MMPP
// stresses schedulers with rate bursts rather than destination bursts.
//
// The rates are derived from the long-run load: with equal mean dwells
// the chain spends half its time in each state, so HighRate+LowRate =
// 2*Load. NewMMPP pins HighRate = min(1, 2*Load) — the burstiest split:
// below load 0.5 the low state is fully silent (pure rate on/off), above
// it the high state saturates at one cell per slot.
type MMPP struct {
	HighRate     float64 // arrival probability per slot in the high state
	LowRate      float64 // arrival probability per slot in the low state
	MeanDwell    float64 // mean dwell in each state, slots (>= 1)
	ControlShare float64
	Pattern      Pattern
	Src          int
	RNG          *sim.RNG

	high      bool
	remaining int
}

// NewMMPP builds a two-state modulated source with the given long-run
// load and mean per-state dwell time for one port.
func NewMMPP(src, n int, load, meanDwell float64, rng *sim.RNG) *MMPP {
	if meanDwell < 1 {
		meanDwell = 1
	}
	hi := math.Min(1, 2*load)
	m := &MMPP{
		HighRate:  hi,
		LowRate:   2*load - hi,
		MeanDwell: meanDwell,
		Pattern:   Uniform{n},
		Src:       src,
		RNG:       rng,
	}
	// Start in the stationary distribution (equal dwells: 50/50) so the
	// first dwell is not biased toward either state.
	m.high = rng.Bernoulli(0.5)
	m.remaining = 1 + rng.Geometric(1/m.MeanDwell)
	return m
}

// Next implements Generator.
func (m *MMPP) Next(slot uint64) (Arrival, bool) {
	for m.remaining == 0 {
		m.high = !m.high
		m.remaining = 1 + m.RNG.Geometric(1/m.MeanDwell)
	}
	m.remaining--
	rate := m.LowRate
	if m.high {
		rate = m.HighRate
	}
	if !m.RNG.Bernoulli(rate) {
		return Arrival{}, false
	}
	a := Arrival{Dst: m.Pattern.Pick(m.Src, slot, m.RNG)}
	if m.ControlShare > 0 && m.RNG.Bernoulli(m.ControlShare) {
		a.Class = ClassControl
	}
	return a, true
}

// paretoBurstCap bounds a single ON burst: heavy tails are the point,
// but an effectively unbounded draw (the α=1.5 tail reaches ~1e11 slots
// at the RNG's resolution) would wedge a finite simulation. The cap is
// folded into the mean the OFF dwell is derived from, so the load
// accounting stays exact for the capped distribution.
const paretoBurstCap = 1 << 20

// paretoMeans memoises paretoCeilMean per (xm, alpha): at alpha = 1.5
// the sum runs all paretoBurstCap terms, and experiments build Pareto
// sources for the same shape many times, from several pool workers.
var paretoMeans struct {
	mu sync.Mutex
	m  map[[2]float64]float64
}

// paretoCeilMean returns E[min(ceil(Y), cap)] for Y ~ Pareto(xm, alpha),
// computed by paretoCeilSum once per (xm, alpha) per process.
func paretoCeilMean(xm, alpha float64) float64 {
	paretoMeans.mu.Lock()
	defer paretoMeans.mu.Unlock()
	key := [2]float64{xm, alpha}
	if mean, ok := paretoMeans.m[key]; ok {
		return mean
	}
	if paretoMeans.m == nil {
		paretoMeans.m = make(map[[2]float64]float64)
	}
	mean := paretoCeilSum(xm, alpha)
	paretoMeans.m[key] = mean
	return mean
}

// paretoCeilSum evaluates E[min(ceil(Y), cap)] for Y ~ Pareto(xm,
// alpha) via E[L] = sum_{j>=0} P(L > j) with P(Y > j) = 1 for j < xm
// and (xm/j)^alpha beyond. The sum has at most cap terms.
func paretoCeilSum(xm, alpha float64) float64 {
	mean := 0.0
	for j := 0; j < paretoBurstCap; j++ {
		fj := float64(j)
		if fj < xm {
			mean++
			continue
		}
		term := math.Pow(xm/fj, alpha)
		mean += term
		if term < 1e-12*mean {
			// The remaining tail is bounded by the integral
			// xm^alpha * j^(1-alpha) / (alpha-1); add it and stop.
			mean += math.Pow(xm, alpha) * math.Pow(fj, 1-alpha) / (alpha - 1)
			break
		}
	}
	return mean
}

// ParetoOnOff is an on/off source whose ON burst lengths are
// Pareto-distributed (shape Alpha in (1, 2]: finite mean, infinite
// variance) — the heavy-tail regime measured in datacenter traces,
// where rare enormous bursts dominate queue build-up. OFF dwells are
// geometric with the mean that makes the long-run load exact, as in
// OnOff. The destination is burst-constant, like OnOff.
type ParetoOnOff struct {
	Alpha        float64 // Pareto shape (> 1)
	Xm           float64 // Pareto scale: minimum ON length
	Load         float64
	ControlShare float64
	Pattern      Pattern
	Src          int
	RNG          *sim.RNG

	// meanOn is E[min(ceil(Pareto(Xm, Alpha)), paretoBurstCap)],
	// precomputed so every OFF draw can use the exact load equation.
	meanOn float64

	n         int // port count: burstDst is in [0, n)
	on        bool
	remaining int
	burstDst  int
}

// NewParetoOnOff builds a heavy-tail bursty source for one port.
// meanBurst sets the Pareto scale through the continuous-Pareto mean
// relation xm = meanBurst*(alpha-1)/alpha; the realized mean burst is
// the discretized paretoCeilMean(xm, alpha), slightly above meanBurst,
// and it is that realized mean the OFF dwell is derived from — so the
// load is exact even though the burst mean is only approximately the
// requested one.
func NewParetoOnOff(src, n int, load, meanBurst, alpha float64, rng *sim.RNG) *ParetoOnOff {
	if alpha <= 1 {
		alpha = 1.5
	}
	if meanBurst < 1 {
		meanBurst = 1
	}
	xm := meanBurst * (alpha - 1) / alpha
	if xm < 1 {
		xm = 1
	}
	p := &ParetoOnOff{
		Alpha:   alpha,
		Xm:      xm,
		Load:    load,
		Pattern: Uniform{n},
		Src:     src,
		RNG:     rng,
		n:       n,
	}
	p.meanOn = paretoCeilMean(xm, alpha)
	return p
}

// drawBurst samples one ON length: ceil of an inverse-CDF Pareto draw,
// capped at paretoBurstCap.
func (p *ParetoOnOff) drawBurst() int {
	u := p.RNG.Float64()
	for u == 0 {
		u = p.RNG.Float64()
	}
	l := math.Ceil(p.Xm * math.Pow(u, -1/p.Alpha))
	if l > paretoBurstCap {
		return paretoBurstCap
	}
	return int(l)
}

// meanIdle derives the OFF dwell mean from the realized ON mean:
// load = ON / (ON + OFF).
func (p *ParetoOnOff) meanIdle() float64 {
	if p.Load >= 1 {
		return 0
	}
	if p.Load <= 0 {
		return 1e18
	}
	return p.meanOn * (1 - p.Load) / p.Load
}

// Next implements Generator.
func (p *ParetoOnOff) Next(slot uint64) (Arrival, bool) {
	for p.remaining == 0 {
		p.on = !p.on
		if p.on {
			p.remaining = p.drawBurst()
			p.burstDst = p.Pattern.Pick(p.Src, slot, p.RNG)
		} else {
			mi := p.meanIdle()
			if mi <= 0 {
				p.on = true
				p.remaining = p.drawBurst()
				p.burstDst = p.Pattern.Pick(p.Src, slot, p.RNG)
				break
			}
			// Support {0, 1, ...} with mean mi, as in OnOff: zero-length
			// OFF draws coalesce adjacent bursts.
			p.remaining = p.RNG.Geometric(1 / (1 + mi))
		}
	}
	p.remaining--
	if !p.on {
		return Arrival{}, false
	}
	a := Arrival{Dst: p.burstDst}
	if p.ControlShare > 0 && p.RNG.Bernoulli(p.ControlShare) {
		a.Class = ClassControl
	}
	return a, true
}
