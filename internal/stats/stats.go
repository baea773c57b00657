// Package stats provides the streaming statistics used to evaluate the
// fabric simulations: running moments, latency histograms with exact
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
// It keeps one count per distinct latency value, sorted by value: a
// fabric latency is a whole number of slots and a crossbar latency a
// whole number of cycles, so a run holds a few hundred distinct values
// however many cells it delivers, and the order statistics Quantile
// interpolates between are read off the cumulative counts exactly.
//
// The moments (Mean, StdDev, Min, Max) come from a Running fold in
// observation order. All methods are safe for concurrent use (one
// internal mutex), so a metrics scrape may read quantiles from a live
// run while the simulation goroutine is still adding. The one exception
// is Merge's argument: other must be quiescent for the duration of the
// call.
type LatencySample struct {
	mu   sync.Mutex
	bins []bin // ascending by value; every count is positive
	run  Running
}

// bin is one distinct latency value and how often it was observed.
type bin struct {
	v units.Time
	n uint64
}

// Add records one latency observation. A value seen before costs a
// binary search over the distinct values and no allocation.
func (s *LatencySample) Add(t units.Time) {
	s.mu.Lock()
	s.count(t, 1)
	s.run.Add(float64(t))
	s.mu.Unlock()
}

// count adds c observations of v to the histogram.
func (s *LatencySample) count(v units.Time, c uint64) {
	lo, hi := 0, len(s.bins)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.bins[m].v < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(s.bins) && s.bins[lo].v == v {
		s.bins[lo].n += c
		return
	}
	//lint:ignore hotpath only a value never seen before grows the histogram, so its growth is O(distinct values) over a run, not O(cells)
	s.bins = append(s.bins, bin{})
	copy(s.bins[lo+1:], s.bins[lo:])
	s.bins[lo] = bin{v: v, n: c}
}

// N reports the number of observations.
func (s *LatencySample) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.run.n)
}

// Mean reports the mean latency.
func (s *LatencySample) Mean() units.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.run.n == 0 {
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
// interpolation between order statistics. It walks the cumulative
// counts to the two order statistics it needs, so a read never mutates
// state and never allocates.
func (s *LatencySample) Quantile(q float64) units.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quantileLocked(q)
}

func (s *LatencySample) quantileLocked(q float64) units.Time {
	n := s.run.n
	if n == 0 {
		return 0
	}
	last := s.bins[len(s.bins)-1].v
	if q <= 0 {
		return s.bins[0].v
	}
	if q >= 1 {
		return last
	}
	pos := q * float64(n-1)
	lo := uint64(math.Floor(pos))
	if lo+1 >= n {
		return last
	}
	frac := pos - float64(lo)
	// Order statistic lo lies in the first bin whose cumulative count
	// passes it; lo+1 lies in the same bin or the next one.
	var cum uint64
	for i, b := range s.bins {
		cum += b.n
		if lo >= cum {
			continue
		}
		if lo+1 < cum {
			return b.v
		}
		return b.v + units.Time(math.Round(frac*float64(s.bins[i+1].v-b.v)))
	}
	return last
}

// P99 reports the 99th percentile.
func (s *LatencySample) P99() units.Time { return s.Quantile(0.99) }

// Max reports the largest observation.
func (s *LatencySample) Max() units.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.run.n == 0 {
		return 0
	}
	return units.Time(s.run.Max())
}

// Min reports the smallest observation.
func (s *LatencySample) Min() units.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.run.n == 0 {
		return 0
	}
	return units.Time(s.run.Min())
}

// Merge folds other's observations into s (parallel-batch
// combination): the counts add, so s reports exactly the quantiles of
// one collector that had seen both sample sets. other is left unchanged
// and must not be mutated concurrently with the call (s and other must
// be distinct).
func (s *LatencySample) Merge(other *LatencySample) {
	if other == nil || other == s {
		return
	}
	other.mu.Lock()
	otherBins := other.bins
	otherRun := other.run
	other.mu.Unlock()
	s.mu.Lock()
	for _, b := range otherBins {
		s.count(b.v, b.n)
	}
	s.run.Merge(&otherRun)
	s.mu.Unlock()
}

// Reset clears all samples.
func (s *LatencySample) Reset() {
	s.mu.Lock()
	s.bins = s.bins[:0]
	s.run.Reset()
	s.mu.Unlock()
}

// String summarizes the sample for reports.
func (s *LatencySample) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.run.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		s.run.n, units.Time(math.Round(s.run.Mean())),
		s.quantileLocked(0.5), s.quantileLocked(0.99), units.Time(s.run.Max()))
}
