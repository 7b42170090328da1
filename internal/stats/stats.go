// Package stats implements the statistical machinery shared by every
// experiment: weighted empirical distributions, quantiles, confidence
// intervals for medians, histograms, and the Series/Table result types
// that the benchmark harness renders.
package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
)

// WeightedSample is one observation with an associated weight (typically
// bytes of traffic or a population estimate).
type WeightedSample struct {
	Value  float64
	Weight float64
}

// Dist is a weighted empirical distribution. The zero value is an empty
// distribution ready for Add.
type Dist struct {
	samples []WeightedSample
	sorted  bool
	total   float64
}

// Add appends one observation. Non-positive weights are ignored: they carry
// no mass and would otherwise corrupt quantile interpolation.
func (d *Dist) Add(value, weight float64) {
	if weight <= 0 || math.IsNaN(value) || math.IsNaN(weight) {
		return
	}
	d.samples = append(d.samples, WeightedSample{value, weight})
	d.total += weight
	d.sorted = false
}

// N returns the number of observations.
func (d *Dist) N() int { return len(d.samples) }

// TotalWeight returns the sum of all weights.
func (d *Dist) TotalWeight() float64 { return d.total }

// ensureSorted orders the samples by value. slices.SortFunc runs the same
// pdqsort as sort.Slice, without its reflective swapper, so samples with
// tied values keep the order sort.Slice gave them — the order the
// running sums of Mean, CDF and Quantile add their weights in.
func (d *Dist) ensureSorted() {
	if !d.sorted {
		slices.SortFunc(d.samples, func(a, b WeightedSample) int {
			return cmp.Compare(a.Value, b.Value) // Add keeps NaN out
		})
		d.sorted = true
	}
}

// Quantile returns the weighted q-quantile (0 ≤ q ≤ 1). It returns NaN for
// an empty distribution. The estimator is the standard weighted
// inverse-CDF: the smallest value at which the cumulative weight reaches
// q·total.
func (d *Dist) Quantile(q float64) float64 {
	if len(d.samples) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		d.ensureSorted()
		return d.samples[0].Value
	}
	if q >= 1 {
		d.ensureSorted()
		return d.samples[len(d.samples)-1].Value
	}
	d.ensureSorted()
	target := q * d.total
	acc := 0.0
	for _, s := range d.samples {
		acc += s.Weight
		if acc >= target {
			return s.Value
		}
	}
	return d.samples[len(d.samples)-1].Value
}

// Median returns the weighted median.
func (d *Dist) Median() float64 { return d.Quantile(0.5) }

// Mean returns the weighted mean, or NaN when empty.
func (d *Dist) Mean() float64 {
	if d.total == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, s := range d.samples {
		sum += s.Value * s.Weight
	}
	return sum / d.total
}

// Min returns the smallest observation, or NaN when empty.
func (d *Dist) Min() float64 {
	if len(d.samples) == 0 {
		return math.NaN()
	}
	d.ensureSorted()
	return d.samples[0].Value
}

// Max returns the largest observation, or NaN when empty.
func (d *Dist) Max() float64 {
	if len(d.samples) == 0 {
		return math.NaN()
	}
	d.ensureSorted()
	return d.samples[len(d.samples)-1].Value
}

// FracBelow returns the fraction of total weight with Value < x.
func (d *Dist) FracBelow(x float64) float64 {
	if d.total == 0 {
		return math.NaN()
	}
	d.ensureSorted()
	acc := 0.0
	for _, s := range d.samples {
		if s.Value >= x {
			break
		}
		acc += s.Weight
	}
	return acc / d.total
}

// FracAtLeast returns the fraction of total weight with Value >= x.
func (d *Dist) FracAtLeast(x float64) float64 {
	f := d.FracBelow(x)
	if math.IsNaN(f) {
		return f
	}
	return 1 - f
}

// CDF evaluates the weighted empirical CDF: fraction of weight ≤ x.
func (d *Dist) CDF(x float64) float64 {
	if d.total == 0 {
		return math.NaN()
	}
	d.ensureSorted()
	acc := 0.0
	for _, s := range d.samples {
		if s.Value > x {
			break
		}
		acc += s.Weight
	}
	return acc / d.total
}

// CDFSeries samples the CDF at n evenly spaced points between lo and hi
// (inclusive) and returns them as a plottable series.
func (d *Dist) CDFSeries(name string, lo, hi float64, n int) Series {
	s := Series{Name: name, XLabel: "value", YLabel: "cum. fraction"}
	if n < 2 {
		n = 2
	}
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		s.Points = append(s.Points, XY{X: x, Y: d.CDF(x)})
	}
	return s
}

// CCDFSeries samples the complementary CDF (fraction of weight > x).
func (d *Dist) CCDFSeries(name string, lo, hi float64, n int) Series {
	s := d.CDFSeries(name, lo, hi, n)
	s.YLabel = "ccdf"
	for i := range s.Points {
		s.Points[i].Y = 1 - s.Points[i].Y
	}
	return s
}

// MedianCI returns a confidence interval for the weighted median at
// roughly the given confidence level (e.g. 0.95), computed by bootstrap
// resampling with a deterministic internal generator. For tiny samples the
// interval degenerates to [min, max].
func (d *Dist) MedianCI(level float64) (lo, hi float64) {
	n := len(d.samples)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n < 5 {
		return d.Min(), d.Max()
	}
	// Resample indices proportionally to weight using cumulative weights.
	d.ensureSorted()
	cum := make([]float64, n)
	acc := 0.0
	for i, s := range d.samples {
		acc += s.Weight
		cum[i] = acc
	}
	// Each resample draws n uniforms u = q·acc; the resampled median is
	// the k-th smallest u with k = ceil(n/2) (unit weights make the
	// weighted Quantile(0.5) scan stop at the first 1-based rank reaching
	// n/2). The map from a uniform to its sample value — binary search in
	// cum, then the value at that index of the sorted samples — is
	// monotone non-decreasing, and so is q ↦ q·acc, so order statistics
	// commute with both: the k-th smallest q, scaled and mapped once,
	// yields exactly the median that materializing, sorting, and scanning
	// the whole resampled distribution would.
	meds := make([]float64, 0, resamples)
	for _, q := range medianDraws(n) {
		idx := sort.SearchFloat64s(cum, q*acc)
		if idx >= n {
			idx = n - 1
		}
		meds = append(meds, d.samples[idx].Value)
	}
	sort.Float64s(meds)
	alpha := (1 - level) / 2
	loIdx := int(alpha * float64(resamples))
	hiIdx := int((1 - alpha) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	return meds[loIdx], meds[hiIdx]
}

// resamples is the bootstrap's resample count.
const resamples = 200

// medianMemo maps a sample count n to its *[resamples]float64 of
// per-resample median draws (see medianDraws).
var medianMemo sync.Map

// medianDraws returns, for each bootstrap resample of n draws, the
// ceil(n/2)-th smallest raw uniform q in [0, 1). The generator is a
// deterministic LCG local to the bootstrap and seeded from n alone — CI
// computation must not consume simulation randomness — so the draws
// depend on nothing else and are memoised per n: a warm MedianCI pays
// one binary search per resample instead of n draws and a selection.
func medianDraws(n int) *[resamples]float64 {
	if v, ok := medianMemo.Load(n); ok {
		return v.(*[resamples]float64)
	}
	state := uint64(n)*2654435761 + 0x9e3779b9
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 11
	}
	k := (n + 1) / 2
	qs := new([resamples]float64)
	us := make([]float64, n)
	for r := range qs {
		for i := range us {
			us[i] = float64(next()%(1<<52)) / (1 << 52)
		}
		qs[r] = selectKth(us, k-1)
	}
	// A racing computation produced the same draws; keep the first.
	v, _ := medianMemo.LoadOrStore(n, qs)
	return v.(*[resamples]float64)
}

// selectKth returns the k-th smallest element (0-based) of a, reordering
// a in place: Hoare partitioning with a median-of-three pivot, so the
// pseudo-random bootstrap draws select in linear expected time without
// consuming any randomness of their own.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		p := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[lo]
}
