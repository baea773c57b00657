package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesInterp(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(0, 0)
	s.Add(10, 100)
	if got := s.Interp(5); got != 50 {
		t.Errorf("interp(5) = %v", got)
	}
	if got := s.Interp(-1); got != 0 {
		t.Errorf("clamp below: %v", got)
	}
	if got := s.Interp(99); got != 100 {
		t.Errorf("clamp above: %v", got)
	}
	var empty Series
	if !math.IsNaN(empty.Interp(1)) {
		t.Error("empty series should interp NaN")
	}
}

// TestSeriesInterpNearDuplicateX: knots whose x values differ only by
// floating-point noise must act as one knot, the way YAt and
// Table.xValues already collapse them. The old exact == test only
// caught bit-identical duplicates, so a noise-width pair became a
// private cliff segment and queries landing inside it interpolated
// partway up the cliff.
func TestSeriesInterpNearDuplicateX(t *testing.T) {
	const eps = 2e-12 // well inside xTol, far above ulp(0.3)
	s := &Series{}
	s.Add(0, 0)
	s.Add(0.3, 10)
	s.Add(0.3+eps, 1000) // same knot as 0.3 up to float noise
	s.Add(1, 1000)
	// A query strictly inside the noise gap snaps to the collapsed
	// knot; the old code returned the ~halfway value ~505.
	if got := s.Interp(0.3 + eps/2); got != 1000 {
		t.Errorf("interp inside noise-width knot = %v, want 1000", got)
	}
	// Exactly duplicated x keeps its documented collapse too.
	d := &Series{}
	d.Add(0, 0)
	d.Add(0.5, 1)
	d.Add(0.5, 2)
	d.Add(1, 3)
	if got := d.Interp(0.5); got != 1 && got != 2 {
		t.Errorf("interp at duplicate knot = %v, want a knot value", got)
	}
}

func TestSeriesXWhereY(t *testing.T) {
	s := &Series{}
	s.Add(0, 0)
	s.Add(10, 1)
	s.Add(20, 5)
	if got := s.XWhereY(1); math.Abs(got-10) > 1e-9 {
		t.Errorf("XWhereY(1) = %v", got)
	}
	if got := s.XWhereY(3); math.Abs(got-15) > 1e-9 {
		t.Errorf("XWhereY(3) = %v", got)
	}
	if got := s.XWhereY(99); !math.IsNaN(got) {
		t.Errorf("no crossing should be NaN, got %v", got)
	}
}

// TestSeriesXWhereYDirection is the regression test for the crossing
// direction: the doc promises "first reaches y going upward", but the
// old condition also matched downward crossings.
func TestSeriesXWhereYDirection(t *testing.T) {
	// Purely decaying series: crosses y=5 downward only. Used to return
	// x=15; the documented contract says no upward crossing exists.
	down := &Series{}
	down.Add(0, 10)
	down.Add(10, 7)
	down.Add(20, 3)
	if got := down.XWhereY(5); !math.IsNaN(got) {
		t.Errorf("downward-only crossing matched: XWhereY(5) = %v, want NaN", got)
	}
	// Dips below then recovers: the upward crossing (x=25) is the
	// answer, not the earlier downward one (x=5).
	dip := &Series{}
	dip.Add(0, 10)
	dip.Add(10, 0)
	dip.Add(20, 0)
	dip.Add(30, 10)
	if got := dip.XWhereY(5); math.Abs(got-25) > 1e-9 {
		t.Errorf("XWhereY(5) = %v, want 25 (the upward crossing)", got)
	}
	// Flat segment exactly at y after approaching from below: reaching y
	// at the segment's start is an upward arrival.
	flat := &Series{}
	flat.Add(0, 0)
	flat.Add(10, 5)
	flat.Add(20, 5)
	flat.Add(30, 9)
	if got := flat.XWhereY(5); math.Abs(got-10) > 1e-9 {
		t.Errorf("flat segment at y: XWhereY(5) = %v, want 10", got)
	}
	// Flat segment away from y contributes nothing and must not divide
	// by zero or match; the crossing lands on the later rising segment.
	if got := flat.XWhereY(7); math.Abs(got-25) > 1e-9 {
		t.Errorf("XWhereY(7) = %v, want 25", got)
	}
}

func TestSeriesXWhereYDown(t *testing.T) {
	// Decaying series: falls through y=5 between x=10 and x=20.
	down := &Series{}
	down.Add(0, 10)
	down.Add(10, 7)
	down.Add(20, 3)
	if got := down.XWhereYDown(5); math.Abs(got-15) > 1e-9 {
		t.Errorf("XWhereYDown(5) = %v, want 15", got)
	}
	// Rising series: never falls to y, so no downward crossing.
	up := &Series{}
	up.Add(0, 0)
	up.Add(10, 1)
	up.Add(20, 5)
	if got := up.XWhereYDown(3); !math.IsNaN(got) {
		t.Errorf("upward-only crossing matched: XWhereYDown(3) = %v, want NaN", got)
	}
	// Dip-and-recover: the downward crossing (x=5) is the answer, not
	// the later upward one (x=25).
	dip := &Series{}
	dip.Add(0, 10)
	dip.Add(10, 0)
	dip.Add(20, 0)
	dip.Add(30, 10)
	if got := dip.XWhereYDown(5); math.Abs(got-5) > 1e-9 {
		t.Errorf("XWhereYDown(5) = %v, want 5", got)
	}
}

func TestSeriesYAt(t *testing.T) {
	s := &Series{}
	s.Add(1, 11)
	if got := s.YAt(1); got != 11 {
		t.Errorf("YAt(1)=%v", got)
	}
	if got := s.YAt(2); !math.IsNaN(got) {
		t.Errorf("missing x should be NaN, got %v", got)
	}
}

// TestSeriesYAtTolerance is the regression test for exact-float lookup:
// sweep code computes loads in floating point, so the stored x can be
// off by an ulp from the literal the caller asks for.
func TestSeriesYAtTolerance(t *testing.T) {
	s := &Series{}
	x := 0.0
	for i := 0; i < 3; i++ {
		x += 0.1 // 0.30000000000000004 after three adds
	}
	s.Add(x, 42)
	if x == 0.3 {
		t.Fatal("test premise broken: accumulated 0.3 compares equal to the literal")
	}
	if got := s.YAt(0.3); got != 42 {
		t.Errorf("YAt(0.3) = %v, want 42 (stored x = %.17g)", got, x)
	}
	// Matching is symmetric and scale-aware: large x values tolerate
	// proportionally larger noise, genuinely different x still miss.
	s.Add(1e12, 7)
	if got := s.YAt(1e12 + 100); got != 7 {
		t.Errorf("relative tolerance at 1e12: got %v, want 7", got)
	}
	if got := s.YAt(0.31); !math.IsNaN(got) {
		t.Errorf("0.31 should not match 0.3: got %v", got)
	}
	if got := s.YAt(0); !math.IsNaN(got) {
		t.Errorf("0 should not match anything: got %v", got)
	}
	// Zero x matches within absolute tolerance of zero.
	s.Add(1e-15, 3)
	if got := s.YAt(0); got != 3 {
		t.Errorf("YAt(0) = %v, want 3 for x=1e-15", got)
	}
}

// TestTableNearDuplicateXCollapse: two series disagreeing about an x by
// float noise share one table row instead of producing two half-empty
// rows.
func TestTableNearDuplicateXCollapse(t *testing.T) {
	tb := NewTable("t", "x")
	a := tb.AddSeries("a")
	b := tb.AddSeries("b")
	xa := 0.1 + 0.2 // 0.30000000000000004
	a.Add(xa, 1)
	b.Add(0.3, 2)
	xs := tb.xValues()
	if len(xs) != 1 {
		t.Fatalf("xValues = %v, want one collapsed row", xs)
	}
	var sb strings.Builder
	tb.Write(&sb)
	if strings.Contains(sb.String(), "-") {
		t.Errorf("collapsed row should have no missing cells:\n%s", sb.String())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig. 7", "load")
	a := tb.AddSeries("single")
	b := tb.AddSeries("dual")
	a.Add(0.5, 2.1)
	a.Add(0.9, 11)
	b.Add(0.5, 1.6)
	var sb strings.Builder
	tb.Write(&sb)
	out := sb.String()
	for _, want := range []string{"# Fig. 7", "load", "single", "dual", "0.5", "0.9", "2.1", "11", "1.6"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	// Missing point renders as "-".
	if !strings.Contains(out, "-") {
		t.Errorf("missing point should render as '-':\n%s", out)
	}
}

func TestTableXValuesSorted(t *testing.T) {
	tb := NewTable("t", "x")
	s := tb.AddSeries("s")
	s.Add(3, 1)
	s.Add(1, 1)
	s.Add(2, 1)
	xs := tb.xValues()
	if len(xs) != 3 || xs[0] != 1 || xs[1] != 2 || xs[2] != 3 {
		t.Errorf("xValues %v", xs)
	}
}

func TestFormatCell(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{5, "5"},
		{0.25, "0.25"},
		{1234567, "1.235e+06"},
		{1e-9, "1.000e-09"},
		{math.NaN(), "NaN"},
	}
	for _, c := range cases {
		if got := formatCell(c.in); got != c.want {
			t.Errorf("formatCell(%v) = %q want %q", c.in, got, c.want)
		}
	}
}
