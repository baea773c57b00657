// Package traffic is the workload library for the fabric simulations:
// the synthetic sources the paper's delay-versus-throughput studies use
// (Bernoulli uniform arrivals, bursty on/off sources, hotspot and
// permutation destination patterns, the bimodal control/data mix of the
// requirements table), plus the HPC/AI stress battery layered on top —
// incast/fan-in storms, Markov-modulated and Pareto heavy-tail sources,
// and synthetic collective phase schedules (all-to-all, ring and tree
// all-reduce) of the kind an AI training cluster presents. A versioned
// trace format (see Trace) records any generated workload so it reruns
// bit-exactly from a file.
//
// Generators are slotted: each ingress port is asked once per packet
// cycle whether a cell arrived and, if so, for which destination and
// class. All randomness comes from seeded per-port sim.RNG streams, so
// workloads are reproducible and independent across ports.
//
// Load accounting contract: a generator built for offered load L
// realizes L cells/slot/port in long-run expectation (for incast and
// the collectives, L is the load while a port is active; see their
// docs). No generator emits self-traffic (Dst == Src), with one
// deliberate exception: Diagonal targets output src by definition — a
// crossbar stress pattern where output i is a distinct egress adapter,
// not the source host.
package traffic

import (
	"repro/internal/ckpt"
	"repro/internal/sim"
)

// Arrival describes one generated cell-arrival at an ingress port.
type Arrival struct {
	Dst   int
	Class ClassChoice
}

// ClassChoice selects the traffic mode of a generated cell.
type ClassChoice uint8

// Class choices; mirror packet.Class without importing it so the traffic
// package stays independent of the cell representation.
const (
	ClassData ClassChoice = iota
	ClassControl
)

// Generator produces arrivals for one ingress port, one slot at a time,
// and checkpoints its slot-to-slot state bit-exactly.
type Generator interface {
	// Next reports whether a cell arrives at this port in this slot and,
	// if so, its destination port and class.
	Next(slot uint64) (Arrival, bool)
	// SaveState writes the generator's mutable state.
	SaveState(e *ckpt.Encoder)
	// LoadState restores state written by SaveState into a generator
	// built from the same configuration; a refusal latches on d.
	LoadState(d *ckpt.Decoder)
}

// Pattern chooses a destination for a given source at a given slot.
type Pattern interface {
	// Pick returns a destination port in [0, N), never src itself.
	Pick(src int, slot uint64, rng *sim.RNG) int
}

// Uniform spreads destinations uniformly over all ports except the
// source itself (self-traffic never crosses the fabric).
type Uniform struct{ N int }

// Pick implements Pattern.
func (u Uniform) Pick(src int, _ uint64, rng *sim.RNG) int {
	if u.N <= 1 {
		return src
	}
	d := rng.Intn(u.N - 1)
	if d >= src {
		d++
	}
	return d
}

// Hotspot sends a fraction of traffic to one hot output and spreads the
// remainder uniformly. It models the overload scenarios used to exercise
// flow control (§IV.B). The hot port itself never aims at Hot: its
// traffic is entirely uniform over the other ports, honouring the
// package-wide no-self-traffic contract.
type Hotspot struct {
	N        int
	Hot      int
	Fraction float64 // fraction of cells aimed at Hot
}

// Pick implements Pattern.
func (h Hotspot) Pick(src int, slot uint64, rng *sim.RNG) int {
	if src != h.Hot && rng.Bernoulli(h.Fraction) {
		return h.Hot
	}
	return Uniform{h.N}.Pick(src, slot, rng)
}

// Permutation sends all traffic from port i to a fixed partner, the
// worst case for schedulers that rely on destination diversity.
type Permutation struct {
	Partner []int
}

// NewRandomPermutation builds a random permutation with no fixed points
// where possible (a derangement attempt; falls back after retries).
func NewRandomPermutation(n int, rng *sim.RNG) Permutation {
	for try := 0; try < 64; try++ {
		perm := rng.Perm(n)
		ok := true
		for i, v := range perm {
			if i == v {
				ok = false
				break
			}
		}
		if ok || n < 2 {
			return Permutation{Partner: perm}
		}
	}
	return Permutation{Partner: rng.Perm(n)}
}

// Pick implements Pattern.
func (p Permutation) Pick(src int, _ uint64, _ *sim.RNG) int {
	return p.Partner[src]
}

// Diagonal concentrates 2/3 of each input's traffic on output i and 1/3
// on output i+1, a standard non-uniform stress pattern for crossbar
// schedulers.
type Diagonal struct{ N int }

// Pick implements Pattern.
func (d Diagonal) Pick(src int, _ uint64, rng *sim.RNG) int {
	if rng.Bernoulli(2.0 / 3.0) {
		return src % d.N
	}
	return (src + 1) % d.N
}

// Bernoulli is an i.i.d. slotted arrival process: in each slot a cell
// arrives with probability Load, destined per the Pattern.
type Bernoulli struct {
	Load         float64
	ControlShare float64 // fraction of arrivals that are control cells
	Pattern      Pattern
	Src          int
	RNG          *sim.RNG
}

// NewBernoulli builds a uniform Bernoulli source for one port.
func NewBernoulli(src, n int, load float64, rng *sim.RNG) *Bernoulli {
	return &Bernoulli{Load: load, Pattern: Uniform{n}, Src: src, RNG: rng}
}

// Next implements Generator.
func (b *Bernoulli) Next(slot uint64) (Arrival, bool) {
	if !b.RNG.Bernoulli(b.Load) {
		return Arrival{}, false
	}
	a := Arrival{Dst: b.Pattern.Pick(b.Src, slot, b.RNG)}
	if b.ControlShare > 0 && b.RNG.Bernoulli(b.ControlShare) {
		a.Class = ClassControl
	}
	return a, true
}

// OnOff is a two-state Markov-modulated source producing the bursty
// traffic of the Data Vortex comparison literature: in the ON state it
// emits a cell every slot toward a burst-constant destination. ON dwell
// times are 1 + Geometric draws with mean MeanBurst; OFF dwell times are
// Geometric with mean meanIdle() and support {0, 1, ...} — a zero-length
// OFF draw flips straight back ON (two bursts coalesce), which is what
// lets the long-run load match Load exactly even when the configured
// load forces a mean idle below one slot.
type OnOff struct {
	MeanBurst    float64 // mean ON duration in slots (>= 1)
	Load         float64 // long-run offered load in cells/slot
	ControlShare float64
	Pattern      Pattern
	Src          int
	RNG          *sim.RNG

	n         int // port count: burstDst is in [0, n)
	on        bool
	remaining int
	burstDst  int
}

// NewOnOff builds a bursty source with the given mean burst length and
// long-run load for one port.
func NewOnOff(src, n int, load, meanBurst float64, rng *sim.RNG) *OnOff {
	if meanBurst < 1 {
		meanBurst = 1
	}
	return &OnOff{
		MeanBurst: meanBurst,
		Load:      load,
		Pattern:   Uniform{n},
		Src:       src,
		RNG:       rng,
		n:         n,
	}
}

// meanIdle derives the OFF dwell time that yields the configured load:
// load = ON / (ON + OFF)  =>  OFF = ON * (1-load)/load.
func (o *OnOff) meanIdle() float64 {
	if o.Load >= 1 {
		return 0
	}
	if o.Load <= 0 {
		return 1e18
	}
	return o.MeanBurst * (1 - o.Load) / o.Load
}

// Next implements Generator.
func (o *OnOff) Next(slot uint64) (Arrival, bool) {
	for o.remaining == 0 {
		o.on = !o.on
		if o.on {
			o.remaining = 1 + o.RNG.Geometric(1/o.MeanBurst)
			o.burstDst = o.Pattern.Pick(o.Src, slot, o.RNG)
		} else {
			mi := o.meanIdle()
			if mi <= 0 {
				o.on = true
				o.remaining = 1 + o.RNG.Geometric(1/o.MeanBurst)
				o.burstDst = o.Pattern.Pick(o.Src, slot, o.RNG)
				break
			}
			// Geometric with success probability 1/(1+mi) has mean mi
			// over support {0, 1, ...}: the dwell the load equation
			// asks for. (The old draw added a constant extra slot —
			// mean mi+1 — so a 0.95-load source realized only ~0.90.)
			o.remaining = o.RNG.Geometric(1 / (1 + mi))
		}
	}
	o.remaining--
	if !o.on {
		return Arrival{}, false
	}
	a := Arrival{Dst: o.burstDst}
	if o.ControlShare > 0 && o.RNG.Bernoulli(o.ControlShare) {
		a.Class = ClassControl
	}
	return a, true
}

// Bimodal mixes the paper's two traffic modes explicitly: control cells
// arrive as a low-rate Bernoulli process while data cells arrive as a
// (possibly bursty) bulk process. Control cells win ties in the same
// slot, mirroring strict fabric priority; the displaced data cell is
// not lost — it waits in a FIFO and goes out on the next control-free
// slot, so the offered data load matches the configured data load.
type Bimodal struct {
	Control *Bernoulli
	Data    Generator

	// pending holds data arrivals displaced by same-slot control wins,
	// oldest first (head-indexed so steady-state pops do not shift).
	pending []Arrival
	head    int
	n       int // port count: every pending Dst is in [0, n)
}

// NewBimodal builds a bimodal source: dataLoad bulk data plus ctlLoad
// uniform control traffic for one port.
func NewBimodal(src, n int, dataLoad, ctlLoad float64, rng *sim.RNG) *Bimodal {
	ctl := NewBernoulli(src, n, ctlLoad, rng.Fork(1))
	ctl.ControlShare = 1
	return &Bimodal{
		Control: ctl,
		Data:    NewBernoulli(src, n, dataLoad, rng.Fork(2)),
		n:       n,
	}
}

// Pending reports how many displaced data cells are waiting for a
// control-free slot.
func (b *Bimodal) Pending() int { return len(b.pending) - b.head }

func (b *Bimodal) push(a Arrival) {
	b.pending = append(b.pending, a)
}

func (b *Bimodal) pop() (Arrival, bool) {
	if b.head == len(b.pending) {
		return Arrival{}, false
	}
	a := b.pending[b.head]
	b.head++
	if b.head == len(b.pending) {
		b.pending = b.pending[:0]
		b.head = 0
	}
	return a, true
}

// Next implements Generator. Both sub-processes are sampled every slot
// (so their RNG streams advance independently of who wins); data
// arrivals pass through the pending FIFO, which preserves their order
// and defers them past slots a control cell claims.
func (b *Bimodal) Next(slot uint64) (Arrival, bool) {
	ctl, ctlOK := b.Control.Next(slot)
	if data, ok := b.Data.Next(slot); ok {
		b.push(data)
	}
	if ctlOK {
		return ctl, true
	}
	return b.pop()
}
