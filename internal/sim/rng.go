package sim

import (
	"errors"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). Every stochastic model component
// owns its own RNG stream so that adding or removing one component never
// perturbs the draws seen by another — a property the reproduction tests
// rely on.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Fork derives an independent child stream; the child's sequence is a
// deterministic function of the parent seed and the label.
func (r *RNG) Fork(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0xd1342543de82ef95))
}

// DeriveSeed maps (base, label) to an independent child seed through the
// SplitMix64 stream splitter, without touching any RNG state. It is the
// seed-derivation scheme for parallel fan-out: replication r of a run
// seeded with s uses DeriveSeed(s, r), so the set of child streams is a
// pure function of (base seed, index) and is identical whether the
// children execute serially or concurrently. Distinct labels yield
// decorrelated streams even for adjacent bases (the label is spread by
// an odd multiplier before mixing, the same constant Fork uses).
func DeriveSeed(base, label uint64) uint64 {
	x := base
	_ = splitmix64(&x) // decorrelate adjacent bases before the label lands
	x ^= label * 0xd1342543de82ef95
	return splitmix64(&x)
}

// ErrZeroState rejects a Restore of the all-zero xoshiro state, which is
// a fixed point of the generator (every draw would be zero forever). No
// reachable RNG ever holds it — NewRNG guards against it — so an all-zero
// snapshot can only mean corruption.
var ErrZeroState = errors.New("sim: RNG restore from all-zero state")

// State returns the raw xoshiro256** state words. Together with Restore
// it round-trips a generator across a checkpoint: a stream restored from
// State() continues bit-exactly where the original left off. The state
// is a snapshot — later draws on r do not affect a previously returned
// State value.
func (r *RNG) State() [4]uint64 {
	return r.s
}

// Restore overwrites the generator state with a snapshot previously
// obtained from State. The next draw after Restore equals the draw the
// snapshotted generator would have produced next. The all-zero state is
// rejected with ErrZeroState.
func (r *RNG) Restore(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return ErrZeroState
	}
	r.s = s
	return nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		//lint:ignore panicfree mirrors the math/rand Intn contract: non-positive n is a caller bug
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded draws.
	bound := uint64(n)
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return r.Float64() < p
	}
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success; mean (1-p)/p. Used by the on/off bursty traffic model.
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		//lint:ignore panicfree non-positive p diverges; a caller bug, mirroring the Intn contract
		panic("sim: Geometric with non-positive p")
	}
	n := 0
	for !r.Bernoulli(p) {
		n++
	}
	return n
}

// Perm returns a uniformly random permutation of [0, n) via Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
