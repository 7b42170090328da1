package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// addAll adds each value with weight 1.
func addAll(d *Dist, values ...float64) {
	for _, v := range values {
		d.Add(v, 1)
	}
}

func TestQuantileUnweighted(t *testing.T) {
	var d Dist
	addAll(&d, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	if m := d.Median(); m != 5 {
		t.Fatalf("median = %v, want 5", m)
	}
	if q := d.Quantile(0.9); q != 9 {
		t.Fatalf("p90 = %v, want 9", q)
	}
	if q := d.Quantile(0); q != 1 {
		t.Fatalf("p0 = %v, want 1", q)
	}
	if q := d.Quantile(1); q != 10 {
		t.Fatalf("p100 = %v, want 10", q)
	}
}

func TestQuantileWeighted(t *testing.T) {
	var d Dist
	d.Add(1, 1)
	d.Add(100, 99)
	if m := d.Median(); m != 100 {
		t.Fatalf("weighted median = %v, want 100 (99%% of mass)", m)
	}
	if f := d.FracBelow(50); math.Abs(f-0.01) > 1e-12 {
		t.Fatalf("FracBelow(50) = %v, want 0.01", f)
	}
}

func TestEmptyDistIsNaN(t *testing.T) {
	var d Dist
	for _, v := range []float64{d.Median(), d.Mean(), d.Min(), d.Max(), d.FracBelow(0), d.CDF(0)} {
		if !math.IsNaN(v) {
			t.Fatalf("empty dist stat = %v, want NaN", v)
		}
	}
}

func TestIgnoresBadSamples(t *testing.T) {
	var d Dist
	d.Add(5, 0)
	d.Add(5, -1)
	d.Add(math.NaN(), 1)
	d.Add(1, math.NaN())
	if d.N() != 0 {
		t.Fatalf("bad samples were admitted: n=%d", d.N())
	}
}

func TestMeanWeighted(t *testing.T) {
	var d Dist
	d.Add(0, 3)
	d.Add(10, 1)
	if m := d.Mean(); math.Abs(m-2.5) > 1e-12 {
		t.Fatalf("mean = %v, want 2.5", m)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var d Dist
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				d.Add(v, 1)
			}
		}
		if d.N() == 0 {
			return true
		}
		prev := -1.0
		lo, hi := d.Min()-1, d.Max()+1
		for i := 0; i <= 20; i++ {
			x := lo + (hi-lo)*float64(i)/20
			c := d.CDF(x)
			if c < prev-1e-12 || c < 0 || c > 1 {
				return false
			}
			prev = c
		}
		return math.Abs(d.CDF(d.Max())-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileWithinRangeProperty(t *testing.T) {
	f := func(vals []float64, q float64) bool {
		var d Dist
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				d.Add(v, 1)
			}
		}
		if d.N() == 0 {
			return true
		}
		q = math.Abs(math.Mod(q, 1))
		v := d.Quantile(q)
		return v >= d.Min() && v <= d.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFracBelowPlusAtLeast(t *testing.T) {
	var d Dist
	addAll(&d, 1, 2, 3, 4, 5)
	for _, x := range []float64{0, 2.5, 3, 6} {
		if s := d.FracBelow(x) + d.FracAtLeast(x); math.Abs(s-1) > 1e-12 {
			t.Fatalf("FracBelow+FracAtLeast at %v = %v", x, s)
		}
	}
}

func TestMedianCICoversMedian(t *testing.T) {
	var d Dist
	for i := 0; i < 500; i++ {
		d.Add(float64(i%37), 1)
	}
	lo, hi := d.MedianCI(0.95)
	m := d.Median()
	if !(lo <= m && m <= hi) {
		t.Fatalf("CI [%v, %v] does not cover median %v", lo, hi, m)
	}
	if lo > hi {
		t.Fatalf("inverted CI [%v, %v]", lo, hi)
	}
}

func TestMedianCITinySample(t *testing.T) {
	var d Dist
	addAll(&d, 3, 7)
	lo, hi := d.MedianCI(0.95)
	if lo != 3 || hi != 7 {
		t.Fatalf("tiny-sample CI = [%v,%v], want [3,7]", lo, hi)
	}
}

func TestCDFSeries(t *testing.T) {
	var d Dist
	addAll(&d, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	s := d.CDFSeries("test", 0, 9, 10)
	if len(s.Points) != 10 {
		t.Fatalf("series has %d points", len(s.Points))
	}
	if s.Points[9].Y != 1 {
		t.Fatalf("CDF at max = %v, want 1", s.Points[9].Y)
	}
	cc := d.CCDFSeries("test", 0, 9, 10)
	for i := range s.Points {
		if math.Abs(s.Points[i].Y+cc.Points[i].Y-1) > 1e-12 {
			t.Fatal("CDF + CCDF != 1")
		}
	}
}

func TestSeriesYAt(t *testing.T) {
	s := Series{Points: []XY{{0, 0}, {10, 1}}}
	if y := s.YAt(5); math.Abs(y-0.5) > 1e-12 {
		t.Fatalf("YAt(5) = %v, want 0.5", y)
	}
	if y := s.YAt(-1); y != 0 {
		t.Fatalf("YAt below domain = %v, want clamp to 0", y)
	}
	if y := s.YAt(20); y != 1 {
		t.Fatalf("YAt above domain = %v, want clamp to 1", y)
	}
	var empty Series
	if !math.IsNaN(empty.YAt(0)) {
		t.Fatal("empty series should yield NaN")
	}
}

func TestTable(t *testing.T) {
	tb := Table{Name: "demo", Columns: []string{"a", "b"}}
	tb.AddRow("x", 1, 2)
	tb.AddRow("w", 3, 4)
	if v, ok := tb.Cell("x", "b"); !ok || v != 2 {
		t.Fatalf("Cell(x,b) = %v,%v", v, ok)
	}
	if _, ok := tb.Cell("x", "zzz"); ok {
		t.Fatal("missing column should not resolve")
	}
	if _, ok := tb.Cell("zzz", "a"); ok {
		t.Fatal("missing row should not resolve")
	}
	out := tb.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "3.000") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestTableAddRowRepairsArity(t *testing.T) {
	tb := Table{Columns: []string{"a", "b"}}
	tb.AddRow("extra", 1, 2, 3) // extras dropped
	tb.AddRow("short", 1)       // padded with NaN
	if v, ok := tb.Cell("extra", "b"); !ok || v != 2 {
		t.Fatalf("extra row b = %v %v", v, ok)
	}
	if _, ok := tb.Cell("extra", "c"); ok {
		t.Fatal("dropped cell still addressable")
	}
	if v, ok := tb.Cell("short", "b"); !ok || !math.IsNaN(v) {
		t.Fatalf("short row b = %v, want NaN", v)
	}
}

func TestSeriesRender(t *testing.T) {
	s := Series{Name: "line", XLabel: "ms", YLabel: "frac", Points: []XY{{1, 0.5}}}
	out := s.Render()
	if !strings.Contains(out, "line") || !strings.Contains(out, "0.5") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

// TestSortMatchesSortSlice: ensureSorted leaves the samples in exactly
// the permutation sort.Slice by value gives, ties included — the order
// the running sums of Mean, CDF and Quantile depend on — over random
// weighted samples drawn from a few distinct values, at lengths on both
// sides of pdqsort's insertion-sort and ninther cut-offs.
func TestSortMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{0, 1, 2, 11, 12, 13, 49, 50, 51, 200, 960, 5000} {
		for _, distinct := range []int{1, 3, 17, 1 << 30} {
			for trial := 0; trial < 4; trial++ {
				var d Dist
				for i := 0; i < n; i++ {
					d.Add(float64(rng.IntN(distinct)), 1+float64(i)) // weights tag the original position
				}
				want := slices.Clone(d.samples)
				sort.Slice(want, func(i, j int) bool { return want[i].Value < want[j].Value })
				d.ensureSorted()
				if !slices.Equal(d.samples, want) {
					t.Fatalf("n=%d distinct=%d trial %d: permutation differs from sort.Slice's", n, distinct, trial)
				}
			}
		}
	}
}
