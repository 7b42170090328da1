package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// XY is one point of a plottable series.
type XY struct {
	X, Y float64
}

// Series is a named sequence of points — the programmatic form of one line
// in one of the paper's figures.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []XY
}

// YAt linearly interpolates the series at x. Points must be sorted by X
// (CDFSeries and friends produce sorted series). Outside the domain it
// clamps to the end values; an empty series yields NaN.
func (s Series) YAt(x float64) float64 {
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
	i := sort.Search(n, func(i int) bool { return s.Points[i].X >= x })
	a, b := s.Points[i-1], s.Points[i]
	if b.X == a.X {
		return b.Y
	}
	t := (x - a.X) / (b.X - a.X)
	return a.Y + t*(b.Y-a.Y)
}

// Render draws the series as aligned two-column text, one row per point.
func (s Series) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s  (%s vs %s)\n", s.Name, s.YLabel, s.XLabel)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%12.4f %12.4f\n", p.X, p.Y)
	}
	return b.String()
}

// Table is a labelled grid of values — the programmatic form of the
// paper's in-text statistics and of Figure 5's per-country map.
type Table struct {
	Name    string
	Columns []string
	Rows    []Row
}

// Row is one table row.
type Row struct {
	Label string
	Cells []float64
}

// AddRow appends a row. An arity mismatch with Columns is repaired rather
// than fatal: missing cells are padded with NaN (rendered as such, so the
// defect is visible in the output) and extras are dropped.
func (t *Table) AddRow(label string, cells ...float64) {
	if len(cells) > len(t.Columns) {
		cells = cells[:len(t.Columns)]
	}
	for len(cells) < len(t.Columns) {
		cells = append(cells, math.NaN())
	}
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// Cell returns the value at (rowLabel, column). The boolean reports
// whether the row and column exist.
func (t *Table) Cell(rowLabel, column string) (float64, bool) {
	col := -1
	for i, c := range t.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel {
			return r.Cells[col], true
		}
	}
	return 0, false
}

// Render draws the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Name)
	labelW := len("row")
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	colW := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colW[i] = len(c) + 2
		if colW[i] < 14 {
			colW[i] = 14
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW+2, "row")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", colW[i], c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", labelW+2, r.Label)
		for i, v := range r.Cells {
			fmt.Fprintf(&b, "%*.3f", colW[i], v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
