package stats

import "repro/internal/units"

// Test-side readers of the live collectors. The program prints a
// collector's count, quantiles and moments through the methods in
// stats.go; the tests also read the latency histogram itself.

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
