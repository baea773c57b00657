package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Point is one (x, y) observation in an experiment series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points, e.g. one curve of a paper figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// xTol is the relative tolerance for matching x coordinates. Sweep
// harnesses compute x values (loads, capacities) in floating point, so
// two series can disagree about "the same" x by an ulp or two — e.g.
// 0.3 vs 0.30000000000000004 from 3*0.1. A relative 1e-9 (absolute near
// zero) is ~7 orders of magnitude above accumulated rounding error yet
// far below the spacing of any real sweep grid.
const xTol = 1e-9

// sameX reports whether two x coordinates are equal within xTol.
func sameX(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= xTol*math.Max(scale, 1)
}

// YAt reports the y value at the first point whose x matches the given
// x within a small relative tolerance (see sameX), or NaN. Exact float
// equality would make YAt(0.3) miss a point stored at the nearest
// representable value of a computed load.
func (s *Series) YAt(x float64) float64 {
	for _, p := range s.Points {
		if sameX(p.X, x) {
			return p.Y
		}
	}
	return math.NaN()
}

// Interp linearly interpolates y at x; points must be sorted by X.
// Outside the domain it clamps to the boundary values.
func (s *Series) Interp(x float64) float64 {
	n := len(s.Points)
	if n == 0 {
		return math.NaN()
	}
	if x <= s.Points[0].X {
		return s.Points[0].Y
	}
	if x >= s.Points[n-1].X {
		return s.Points[n-1].Y
	}
	for i := 1; i < n; i++ {
		if x <= s.Points[i].X {
			a, b := s.Points[i-1], s.Points[i]
			// sameX, not ==: knots differing only by floating-point
			// noise collapse into one, matching YAt and Table.xValues.
			// Interpolating across a noise-width gap would instead
			// manufacture an invisible cliff segment.
			if sameX(b.X, a.X) {
				return b.Y
			}
			f := (x - a.X) / (b.X - a.X)
			return a.Y + f*(b.Y-a.Y)
		}
	}
	return s.Points[n-1].Y
}

// XWhereY reports the smallest x (by linear interpolation between
// consecutive points) at which the series first reaches y going upward:
// the first segment that starts below y and ends at or above it.
// Downward crossings are deliberately not matched — a series that
// starts above y and decays through it never "reaches" y in this sense.
// Returns NaN if the series never crosses y upward.
func (s *Series) XWhereY(y float64) float64 {
	for i := 1; i < len(s.Points); i++ {
		a, b := s.Points[i-1], s.Points[i]
		if a.Y < y && b.Y >= y {
			f := (y - a.Y) / (b.Y - a.Y)
			return a.X + f*(b.X-a.X)
		}
	}
	return math.NaN()
}

// XWhereYDown is the downward counterpart of XWhereY: the smallest x at
// which the series first falls to y — the first segment that starts
// above y and ends at or below it. Upward crossings are not matched.
// Returns NaN if the series never crosses y downward.
func (s *Series) XWhereYDown(y float64) float64 {
	for i := 1; i < len(s.Points); i++ {
		a, b := s.Points[i-1], s.Points[i]
		if a.Y > y && b.Y <= y {
			f := (a.Y - y) / (a.Y - b.Y)
			return a.X + f*(b.X-a.X)
		}
	}
	return math.NaN()
}

// Table is a set of series sharing an x axis, printable as the rows a
// paper table or figure would report.
type Table struct {
	Title  string
	XLabel string
	Series []*Series
}

// NewTable creates a table with the given title and x-axis label.
func NewTable(title, xLabel string) *Table {
	return &Table{Title: title, XLabel: xLabel}
}

// AddSeries appends a new named series and returns it.
func (t *Table) AddSeries(name string) *Series {
	s := &Series{Name: name}
	t.Series = append(t.Series, s)
	return s
}

// xValues returns the sorted union of x values across all series,
// collapsing values that differ only by floating-point noise (sameX)
// into one row — otherwise two series computing "the same" load from
// different arithmetic would each get a half-empty row.
func (t *Table) xValues() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range t.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	dedup := xs[:0]
	for _, x := range xs {
		if len(dedup) == 0 || !sameX(dedup[len(dedup)-1], x) {
			dedup = append(dedup, x)
		}
	}
	return dedup
}

// Write renders the table as aligned text columns: one row per x value,
// one column per series.
func (t *Table) Write(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	header := []string{t.XLabel}
	for _, s := range t.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range t.xValues() {
		row := []string{formatCell(x)}
		for _, s := range t.Series {
			y := s.YAt(x)
			if math.IsNaN(y) {
				row = append(row, "-")
			} else {
				row = append(row, formatCell(y))
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func formatCell(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.Abs(v) >= 1e5 || (math.Abs(v) < 1e-3 && v != 0):
		return fmt.Sprintf("%.3e", v)
	case v == math.Trunc(v):
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
