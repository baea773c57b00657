package stats

import (
	"fmt"

	"repro/internal/units"
)

// Test-side readers and the collectors no engine uses. The program
// prints a collector's count, quantiles and moments through the methods
// in stats.go; the tests also read the latency histogram itself.

// N reports the number of observations.
func (r *Running) N() uint64 { return r.n }

// Median reports the 50th percentile.
func (s *LatencySample) Median() units.Time { return s.Quantile(0.5) }

// histogram returns a copy of the collector's (value, count) bins,
// ascending by value.
func (s *LatencySample) histogram() []bin {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]bin(nil), s.bins...)
}

// TimeWeighted tracks a piecewise-constant quantity (queue occupancy,
// link busy state) and reports its time-average.
type TimeWeighted struct {
	last     units.Time
	value    float64
	area     float64
	started  bool
	maxValue float64
}

// Set records that the quantity changed to v at time now.
func (w *TimeWeighted) Set(now units.Time, v float64) {
	if w.started {
		if now < w.last {
			//lint:ignore panicfree non-monotonic samples mean the kernel invariant already failed; corrupt integrals must not look like results
			panic(fmt.Sprintf("stats: time went backwards: %v < %v", now, w.last))
		}
		w.area += w.value * float64(now-w.last)
	} else {
		w.started = true
		w.maxValue = v
	}
	if v > w.maxValue {
		w.maxValue = v
	}
	w.last = now
	w.value = v
}

// Value reports the current quantity.
func (w *TimeWeighted) Value() float64 { return w.value }

// MaxValue reports the largest value ever set.
func (w *TimeWeighted) MaxValue() float64 { return w.maxValue }

// Average reports the time-average over [start of observation, now].
func (w *TimeWeighted) Average(now units.Time) float64 {
	if !w.started || now <= 0 {
		return 0
	}
	area := w.area + w.value*float64(now-w.last)
	elapsed := float64(now)
	if elapsed == 0 {
		return 0
	}
	return area / elapsed
}

// Counter is a monotone event counter with a rate helper.
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Addn adds n.
func (c *Counter) Addn(n uint64) { c.n += n }

// Value reports the count.
func (c *Counter) Value() uint64 { return c.n }

// Rate reports events per second of simulated time.
func (c *Counter) Rate(elapsed units.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.n) / elapsed.Seconds()
}
