// Package stats provides the streaming statistics used to evaluate the
// fabric simulations: running moments, latency samples with exact
// percentiles, and series tables.
//
// Most collectors are single-goroutine by design: the simulation kernel
// is sequential, so they avoid locks entirely. The one exception is
// LatencySample, which is internally synchronized: a long-running service
// scrapes quantiles from live runs, so its readers must be safe against
// a concurrent Add on the simulation goroutine.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/units"
)

// Running accumulates count, mean, and variance using Welford's method,
// plus min/max. The zero value is ready to use.
type Running struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Mean reports the sample mean, or NaN with no observations.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// Variance reports the unbiased sample variance, or NaN with fewer
// than two observations: one sample carries no spread information, and
// the 0 this used to return claimed perfect precision for n=1 — exactly
// when the estimate is least trustworthy.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return math.NaN()
	}
	return r.m2 / float64(r.n-1)
}

// StdDev reports the sample standard deviation, or NaN with fewer than
// two observations (see Variance).
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min reports the smallest observation, or NaN with no observations.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.min
}

// Max reports the largest observation, or NaN with no observations.
func (r *Running) Max() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.max
}

// Merge folds other into r (parallel-batch combination).
func (r *Running) Merge(other *Running) {
	if other.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *other
		return
	}
	n1, n2 := float64(r.n), float64(other.n)
	d := other.mean - r.mean
	tot := n1 + n2
	r.mean += d * n2 / tot
	r.m2 += other.m2 + d*d*n1*n2/tot
	r.n += other.n
	if other.min < r.min {
		r.min = other.min
	}
	if other.max > r.max {
		r.max = other.max
	}
}

// Reset clears the collector.
func (r *Running) Reset() { *r = Running{} }

// LatencySample collects Time observations and reports exact quantiles.
// It keeps every sample; fabric runs observe at most a few million cells,
// which is cheap to retain and makes percentile math exact.
//
// Samples are retained in insertion order — the order is part of the
// collector's observable state (checkpoints serialize it) and is never
// perturbed by reads. Quantile sorts into a reusable scratch buffer
// instead: after the buffer warms up, quantile reads cost zero
// allocations. All methods are safe for concurrent use (one internal
// mutex), so a metrics scrape may read quantiles from a live run while
// the simulation goroutine is still adding. The one exception is Merge's
// argument: other must be quiescent for the duration of the call.
type LatencySample struct {
	mu      sync.Mutex
	samples []units.Time // insertion order, append-only between Resets
	run     Running

	// scratch is the sorted copy Quantile reads. It is valid iff
	// scratchGen == gen; every mutation bumps gen. A generation counter
	// (rather than comparing lengths) stays correct across Reset, where
	// a later refill could coincidentally match the stale length.
	scratch    []units.Time
	gen        uint64
	scratchGen uint64
}

// Add records one latency observation.
func (s *LatencySample) Add(t units.Time) {
	s.mu.Lock()
	//lint:ignore hotpath retaining every sample is the collector's contract (exact quantiles); Grow pre-sizes known measurement windows
	s.samples = append(s.samples, t)
	s.gen++
	s.run.Add(float64(t))
	s.mu.Unlock()
}

// Grow pre-sizes the sample buffer for at least n additional
// observations, so a measurement window of known length can reserve its
// capacity up front instead of growing the buffer mid-run.
func (s *LatencySample) Grow(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 || cap(s.samples)-len(s.samples) >= n {
		return
	}
	grown := make([]units.Time, len(s.samples), len(s.samples)+n)
	copy(grown, s.samples)
	s.samples = grown
}

// N reports the number of observations.
func (s *LatencySample) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Mean reports the mean latency.
func (s *LatencySample) Mean() units.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	return units.Time(math.Round(s.run.Mean()))
}

// StdDev reports the latency standard deviation in picoseconds, or
// NaN with fewer than two samples.
func (s *LatencySample) StdDev() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.run.StdDev()
}

// Quantile reports the q-th (0..1) sample quantile with linear
// interpolation between order statistics. The samples themselves are
// left in insertion order: the sort happens in a reusable scratch
// buffer, so a read never mutates observable state and costs no
// allocations once the buffer has grown to the sample count.
func (s *LatencySample) Quantile(q float64) units.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quantileLocked(q)
}

func (s *LatencySample) quantileLocked(q float64) units.Time {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if s.scratchGen != s.gen || len(s.scratch) != n {
		s.scratch = append(s.scratch[:0], s.samples...)
		slices.Sort(s.scratch)
		s.scratchGen = s.gen
	}
	if q <= 0 {
		return s.scratch[0]
	}
	if q >= 1 {
		return s.scratch[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return s.scratch[n-1]
	}
	frac := pos - float64(lo)
	return s.scratch[lo] + units.Time(math.Round(frac*float64(s.scratch[hi]-s.scratch[lo])))
}

// P99 reports the 99th percentile.
func (s *LatencySample) P99() units.Time { return s.Quantile(0.99) }

// Max reports the largest observation.
func (s *LatencySample) Max() units.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	return units.Time(s.run.Max())
}

// Min reports the smallest observation.
func (s *LatencySample) Min() units.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	return units.Time(s.run.Min())
}

// Merge folds other's samples into s (parallel-batch combination):
// after the merge, s reports exactly what one collector that had seen
// both sample sets would report — quantiles included, since every raw
// observation is retained. other is left unchanged and must not be
// mutated concurrently with the call (s and other must be distinct).
func (s *LatencySample) Merge(other *LatencySample) {
	if other == nil || other == s {
		return
	}
	other.mu.Lock()
	otherSamples := other.samples
	otherRun := other.run
	other.mu.Unlock()
	if len(otherSamples) == 0 {
		return
	}
	s.mu.Lock()
	s.samples = append(s.samples, otherSamples...)
	s.gen++
	s.run.Merge(&otherRun)
	s.mu.Unlock()
}

// Reset clears all samples.
func (s *LatencySample) Reset() {
	s.mu.Lock()
	s.samples = s.samples[:0]
	s.gen++
	s.run.Reset()
	s.mu.Unlock()
}

// String summarizes the sample for reports.
func (s *LatencySample) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		len(s.samples), units.Time(math.Round(s.run.Mean())),
		s.quantileLocked(0.5), s.quantileLocked(0.99), units.Time(s.run.Max()))
}
