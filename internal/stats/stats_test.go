package stats

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if !math.IsNaN(r.Mean()) {
		t.Error("empty mean should be NaN")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(v)
	}
	if r.N() != 8 {
		t.Errorf("n=%d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("mean %v", r.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(r.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance %v", r.Variance())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max %v/%v", r.Min(), r.Max())
	}
}

// TestRunningSmallN: below two observations the spread statistics are
// undefined and must report NaN — the old 0 return read as "perfectly
// precise" exactly when nothing is known yet.
func TestRunningSmallN(t *testing.T) {
	var r Running
	for _, n := range []int{0, 1} {
		for i := 0; i < n; i++ {
			r.Add(3)
		}
		for name, f := range map[string]func() float64{
			"Variance": r.Variance, "StdDev": r.StdDev,
		} {
			if got := f(); !math.IsNaN(got) {
				t.Errorf("n=%d: %s = %v, want NaN", n, name, got)
			}
		}
		r.Reset()
	}
	// The location statistics are well defined from the first sample.
	r.Add(3)
	if r.Mean() != 3 || r.Min() != 3 || r.Max() != 3 {
		t.Errorf("n=1 mean/min/max = %v/%v/%v, want 3/3/3", r.Mean(), r.Min(), r.Max())
	}
	// And everything snaps to finite values at the second sample.
	r.Add(5)
	if got := r.Variance(); math.Abs(got-2) > 1e-12 {
		t.Errorf("n=2 variance = %v, want 2", got)
	}
	if got := r.StdDev(); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("n=2 stddev = %v, want sqrt(2)", got)
	}
	// A single-sample latency collector reports NaN spread, not 0.
	var s LatencySample
	s.Add(7)
	if !math.IsNaN(s.StdDev()) {
		t.Errorf("1-sample LatencySample.StdDev = %v, want NaN", s.StdDev())
	}
}

func TestRunningMatchesDirectProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var r Running
		var sum float64
		vals := make([]float64, len(raw))
		for i, u := range raw {
			vals[i] = float64(u)/100 - 300
			r.Add(vals[i])
			sum += vals[i]
		}
		mean := sum / float64(len(vals))
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		direct := ss / float64(len(vals)-1)
		return math.Abs(r.Mean()-mean) < 1e-6 && math.Abs(r.Variance()-direct) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunningMergeProperty(t *testing.T) {
	f := func(a, b []uint16) bool {
		var whole, left, right Running
		for _, u := range a {
			v := float64(u) / 7
			whole.Add(v)
			left.Add(v)
		}
		for _, u := range b {
			v := float64(u) / 7
			whole.Add(v)
			right.Add(v)
		}
		left.Merge(&right)
		if whole.N() != left.N() {
			return false
		}
		if whole.N() == 0 {
			return true
		}
		if whole.N() < 2 {
			// Variance is NaN on both sides below two observations.
			return math.Abs(whole.Mean()-left.Mean()) < 1e-6 &&
				math.IsNaN(left.Variance())
		}
		return math.Abs(whole.Mean()-left.Mean()) < 1e-6 &&
			math.Abs(whole.Variance()-left.Variance()) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRunningMergeKWayProperty: merging K partial collectors in order
// equals one-shot accumulation, for any deterministic partition of the
// input — the invariant parallel replication folding relies on.
func TestRunningMergeKWayProperty(t *testing.T) {
	rng := sim.NewRNG(2026)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		k := 1 + rng.Intn(8)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()*2000 - 1000
		}
		var whole Running
		parts := make([]Running, k)
		for i, v := range vals {
			whole.Add(v)
			parts[i%k].Add(v)
		}
		var merged Running
		for i := range parts {
			merged.Merge(&parts[i])
		}
		if merged.N() != whole.N() {
			t.Fatalf("trial %d: N %d != %d", trial, merged.N(), whole.N())
		}
		if math.Abs(merged.Mean()-whole.Mean()) > 1e-9 ||
			math.Abs(merged.Variance()-whole.Variance()) > 1e-6 ||
			merged.Min() != whole.Min() || merged.Max() != whole.Max() {
			t.Fatalf("trial %d (n=%d k=%d): merged mean/var/min/max %v/%v/%v/%v, one-shot %v/%v/%v/%v",
				trial, n, k,
				merged.Mean(), merged.Variance(), merged.Min(), merged.Max(),
				whole.Mean(), whole.Variance(), whole.Min(), whole.Max())
		}
	}
}

// TestLatencySampleMergeKWayProperty: the sample merge is exact — the
// merged collector's counts are the one-shot collector's, so min/max and
// every quantile equal the one-shot collector's bit for bit.
func TestLatencySampleMergeKWayProperty(t *testing.T) {
	rng := sim.NewRNG(77)
	quantiles := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1}
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(500)
		k := 1 + rng.Intn(6)
		var whole LatencySample
		parts := make([]LatencySample, k)
		for i := 0; i < n; i++ {
			v := units.Time(rng.Intn(1_000_000)) * units.Picosecond
			whole.Add(v)
			parts[i%k].Add(v)
		}
		// Query some partials before merging: a read must not disturb
		// what Merge folds in.
		_ = parts[0].Median()
		var merged LatencySample
		for i := range parts {
			merged.Merge(&parts[i])
		}
		// Min/max/count and every quantile are exact (the counts add);
		// the streaming moments match to float tolerance (the
		// pairwise merge reorders Welford's arithmetic).
		if merged.N() != whole.N() ||
			merged.Min() != whole.Min() || merged.Max() != whole.Max() {
			t.Fatalf("trial %d: merged summary diverged: %v vs %v", trial, merged.String(), whole.String())
		}
		if math.Abs(float64(merged.Mean()-whole.Mean())) > 1 ||
			math.Abs(merged.StdDev()-whole.StdDev()) > 1e-6*(1+whole.StdDev()) {
			t.Fatalf("trial %d: merged moments diverged: %v vs %v", trial, merged.String(), whole.String())
		}
		for _, q := range quantiles {
			if merged.Quantile(q) != whole.Quantile(q) {
				t.Fatalf("trial %d: q%.2f: merged %v, one-shot %v", trial, q, merged.Quantile(q), whole.Quantile(q))
			}
		}
	}
	// Merging an empty or nil sample is a no-op.
	var s, empty LatencySample
	s.Add(5)
	s.Merge(&empty)
	s.Merge(nil)
	if s.N() != 1 || s.Median() != 5 {
		t.Errorf("no-op merge changed the sample: %v", s.String())
	}
}

func TestLatencySampleQuantiles(t *testing.T) {
	var s LatencySample
	for i := 1; i <= 100; i++ {
		s.Add(units.Time(i) * units.Nanosecond)
	}
	if got := s.Median(); got < 50*units.Nanosecond || got > 51*units.Nanosecond {
		t.Errorf("median %v", got)
	}
	if got := s.Quantile(0); got != units.Nanosecond {
		t.Errorf("q0 %v", got)
	}
	if got := s.Quantile(1); got != 100*units.Nanosecond {
		t.Errorf("q1 %v", got)
	}
	if got := s.P99(); got < 99*units.Nanosecond {
		t.Errorf("p99 %v", got)
	}
	if s.Min() != units.Nanosecond || s.Max() != 100*units.Nanosecond {
		t.Errorf("min/max %v/%v", s.Min(), s.Max())
	}
	if got := s.Mean(); got != units.Time(50500) {
		t.Errorf("mean %v ps", int64(got))
	}
}

func TestLatencySampleInterleavedAddQuery(t *testing.T) {
	var s LatencySample
	s.Add(10)
	_ = s.Median()
	s.Add(20) // a read between adds must not go stale
	s.Add(5)
	if got := s.Median(); got != 10 {
		t.Errorf("median after re-add: %v", got)
	}
}

func TestTimeWeighted(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 1)
	w.Set(10, 3)
	w.Set(20, 0)
	// [0,10): 1, [10,20): 3, [20,40): 0 -> area 40 over 40 = 1.0
	if got := w.Average(40); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("average %v", got)
	}
	if w.MaxValue() != 3 {
		t.Errorf("max %v", w.MaxValue())
	}
	if w.Value() != 0 {
		t.Errorf("value %v", w.Value())
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	var w TimeWeighted
	w.Set(10, 1)
	defer func() {
		if recover() == nil {
			t.Error("backwards time should panic")
		}
	}()
	w.Set(5, 2)
}

func TestCounterRate(t *testing.T) {
	var c Counter
	c.Inc()
	c.Addn(9)
	if c.Value() != 10 {
		t.Errorf("value %d", c.Value())
	}
	if got := c.Rate(units.Microsecond); math.Abs(got-1e7) > 1 {
		t.Errorf("rate %v", got)
	}
}

func TestRNGIndependentOfStats(t *testing.T) {
	// Collectors must not consume randomness; a guard against accidental
	// coupling between measurement and simulation streams.
	r := sim.NewRNG(3)
	before := r.Uint64()
	var run Running
	run.Add(1)
	r2 := sim.NewRNG(3)
	if before != r2.Uint64() {
		t.Error("stats polluted RNG determinism")
	}
}

// TestLatencySampleScrapeWhileAddRace: the PR-9 regression — a metrics
// scrape reading quantiles from a live collector while the simulation
// goroutine adds. The old lazy in-place sort made every read a write;
// under -race this test fails on that implementation.
func TestLatencySampleScrapeWhileAddRace(t *testing.T) {
	var s LatencySample
	const adds = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < adds; i++ {
			s.Add(units.Time(i%97) * units.Nanosecond)
		}
	}()
	var scrapers sync.WaitGroup
	for w := 0; w < 4; w++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				_ = s.Median()
				_ = s.P99()
				_ = s.Mean()
				_ = s.String()
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	<-done
	scrapers.Wait()
	if s.N() != adds {
		t.Fatalf("lost samples under concurrent scrape: %d of %d", s.N(), adds)
	}
}

// TestLatencySampleQuantileSteadyStateAllocs: once every value has
// been seen, Add and Quantile cost zero allocations, including a
// Quantile straight after an Add.
func TestLatencySampleQuantileSteadyStateAllocs(t *testing.T) {
	var s LatencySample
	rng := sim.NewRNG(5)
	for i := 0; i < 10_000; i++ {
		s.Add(units.Time(rng.Intn(1_000)))
	}
	if avg := testing.AllocsPerRun(100, func() {
		_ = s.Quantile(0.5)
		_ = s.Quantile(0.99)
	}); avg != 0 {
		t.Fatalf("steady-state Quantile allocates %v objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		s.Add(units.Time(rng.Intn(1_000)))
	}); avg != 0 {
		t.Fatalf("Add of a value seen before allocates %v objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		s.Add(2)
		_ = s.Quantile(0.9)
	}); avg != 0 {
		t.Fatalf("Quantile after Add allocates %v objects/op, want 0", avg)
	}
}

// refQuantile is the brute-force reference: sort every observation and
// interpolate linearly between the two order statistics around q(n-1).
func refQuantile(obs []units.Time, q float64) units.Time {
	n := len(obs)
	if n == 0 {
		return 0
	}
	sorted := slices.Clone(obs)
	slices.Sort(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + units.Time(math.Round(frac*float64(sorted[lo+1]-sorted[lo])))
}

// TestLatencySampleMatchesSortedReference: the histogram answers every
// quantile exactly as a sorted list of all observations would, through
// interleaved Add/Quantile, k-way Merge and Reset, on values with many
// duplicates.
func TestLatencySampleMatchesSortedReference(t *testing.T) {
	rng := sim.NewRNG(91)
	check := func(trial int, what string, s *LatencySample, obs []units.Time) {
		t.Helper()
		if s.N() != len(obs) {
			t.Fatalf("trial %d %s: N %d, reference %d", trial, what, s.N(), len(obs))
		}
		for _, q := range []float64{0, 0.5, 0.99, 1, rng.Float64()} {
			if got, want := s.Quantile(q), refQuantile(obs, q); got != want {
				t.Fatalf("trial %d %s: q=%v: histogram %v, reference %v", trial, what, q, got, want)
			}
		}
		if len(obs) > 0 && (s.Min() != slices.Min(obs) || s.Max() != slices.Max(obs)) {
			t.Fatalf("trial %d %s: min/max %v/%v, reference %v/%v",
				trial, what, s.Min(), s.Max(), slices.Min(obs), slices.Max(obs))
		}
	}
	for trial := 0; trial < 40; trial++ {
		distinct := 1 + rng.Intn(40) // few distinct values: heavy duplication
		scale := units.Time(1 + rng.Intn(8000))
		draw := func() units.Time { return units.Time(rng.Intn(distinct)) * scale }
		k := 1 + rng.Intn(5)
		parts := make([]LatencySample, k)
		partObs := make([][]units.Time, k)
		for i := 0; i < 1+rng.Intn(600); i++ {
			p := rng.Intn(k)
			v := draw()
			parts[p].Add(v)
			partObs[p] = append(partObs[p], v)
			if rng.Intn(50) == 0 {
				check(trial, "interleaved", &parts[p], partObs[p])
			}
		}
		var merged LatencySample
		var all []units.Time
		for p := range parts {
			merged.Merge(&parts[p])
			all = append(all, partObs[p]...)
			check(trial, "merge", &merged, all)
		}
		merged.Reset()
		check(trial, "reset", &merged, nil)
		all = all[:0]
		for i := 0; i < rng.Intn(100); i++ {
			v := draw()
			merged.Add(v)
			all = append(all, v)
		}
		check(trial, "refill", &merged, all)
	}
}
