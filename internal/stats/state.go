// Checkpoint codecs for the collectors. The Welford moments are restored
// word for word (hex floats), so a resumed collector continues the exact
// floating-point recurrence of its uninterrupted twin; a latency
// histogram is restored count for count.
package stats

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/units"
)

// SaveState serializes the running moments.
func (r *Running) SaveState(e *ckpt.Encoder) {
	e.Put("running", ckpt.Uint(r.n), ckpt.Float(r.mean), ckpt.Float(r.m2),
		ckpt.Float(r.min), ckpt.Float(r.max))
}

// LoadState restores moments saved by SaveState, replacing r.
func (r *Running) LoadState(d *ckpt.Decoder) {
	rec := d.Record("running")
	r.n, r.mean, r.m2, r.min, r.max = rec.Uint(), rec.Float(), rec.Float(), rec.Float(), rec.Float()
	rec.Done()
}

// SaveState serializes the collector: moments, then one (value, count)
// record per histogram bin in ascending value order.
func (s *LatencySample) SaveState(e *ckpt.Encoder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.Begin("latency")
	s.run.SaveState(e)
	for _, b := range s.bins {
		e.Put("bin", ckpt.Int(int64(b.v)), ckpt.Uint(b.n))
	}
	e.End("latency")
}

// LoadState restores a collector saved by SaveState, replacing s. The
// bins must be strictly ascending with positive counts summing to the
// moments' count. The section carries no bin count: bins are allocated
// only as their records are read. A refused section leaves s as it was.
func (s *LatencySample) LoadState(d *ckpt.Decoder) {
	d.Begin("latency")
	var run Running
	run.LoadState(d)
	var bins []bin
	var total uint64
	for !d.AtEnd("latency") {
		rec := d.Record("bin")
		b := bin{v: units.Time(rec.Int()), n: rec.UintIn(1, math.MaxUint64)}
		rec.Done()
		if len(bins) > 0 && b.v <= bins[len(bins)-1].v {
			d.Fail(fmt.Errorf("stats: checkpoint latency %d follows %d, want strictly ascending values", b.v, bins[len(bins)-1].v))
		}
		if b.n > math.MaxUint64-total {
			d.Fail(fmt.Errorf("stats: checkpoint latency counts overflow"))
		}
		total += b.n
		bins = append(bins, b)
	}
	d.End("latency")
	if total != run.n {
		d.Fail(fmt.Errorf("stats: checkpoint latency counts sum to %d, moments count %d", total, run.n))
	}
	if d.Err() != nil {
		return
	}
	s.mu.Lock()
	s.bins = bins
	s.run = run
	s.mu.Unlock()
}
