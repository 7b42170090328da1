package stats

import (
	"math"
	"sort"
	"sync"
	"testing"
)

// referenceMedianCI is the pre-optimization bootstrap, kept verbatim as
// the differential reference: it materializes every resampled
// distribution and takes its weighted median. The production MedianCI
// replaces that with an order-statistic selection over the drawn
// uniforms; the two must agree bit for bit because they consume the same
// generator stream and the uniform-to-value map is monotone.
func referenceMedianCI(d *Dist, level float64) (lo, hi float64) {
	n := len(d.samples)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n < 5 {
		return d.Min(), d.Max()
	}
	const resamples = 200
	meds := make([]float64, 0, resamples)
	state := uint64(n)*2654435761 + 0x9e3779b9
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 11
	}
	d.ensureSorted()
	cum := make([]float64, n)
	acc := 0.0
	for i, s := range d.samples {
		acc += s.Weight
		cum[i] = acc
	}
	for r := 0; r < resamples; r++ {
		var re Dist
		for k := 0; k < n; k++ {
			u := float64(next()%(1<<52)) / (1 << 52) * acc
			idx := sort.SearchFloat64s(cum, u)
			if idx >= n {
				idx = n - 1
			}
			re.Add(d.samples[idx].Value, 1)
		}
		meds = append(meds, re.Median())
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

func TestMedianCIMatchesReference(t *testing.T) {
	// A deterministic value/weight stream independent of the CI's own
	// generator, covering ties, skew, and weighted mass. The second pass
	// draws fresh samples at the same sizes, so it reads the memoised
	// bootstrap draws the first pass installed.
	gen := uint64(0x1234_5678_9abc_def0)
	next := func() float64 {
		gen = gen*6364136223846793005 + 1442695040888963407
		return float64(gen>>11) / (1 << 53)
	}
	for pass := 0; pass < 2; pass++ {
		for _, n := range []int{5, 6, 7, 16, 33, 100, 257, 960, 1000} {
			for _, weighted := range []bool{false, true} {
				for _, level := range []float64{0.90, 0.95, 0.99} {
					d := randomDist(n, weighted, next)
					wantLo, wantHi := referenceMedianCI(d, level)
					gotLo, gotHi := d.MedianCI(level)
					if gotLo != wantLo || gotHi != wantHi {
						t.Fatalf("pass=%d n=%d weighted=%v level=%v: MedianCI=(%v,%v) reference=(%v,%v)",
							pass, n, weighted, level, gotLo, gotHi, wantLo, wantHi)
					}
				}
			}
		}
	}
}

// randomDist draws n samples from next on a coarse grid (forcing value
// ties), with unit or random weights.
func randomDist(n int, weighted bool, next func() float64) *Dist {
	var d Dist
	for i := 0; i < n; i++ {
		v := math.Floor(next()*40) * 2.5
		w := 1.0
		if weighted {
			w = 0.25 + 10*next()
		}
		d.Add(v, w)
	}
	return &d
}

// TestMedianCIConcurrent races first and repeat uses of the bootstrap
// memo across goroutines and several sample counts: every interval must
// equal the serial one.
func TestMedianCIConcurrent(t *testing.T) {
	gen := uint64(0xfeed)
	next := func() float64 {
		gen = gen*6364136223846793005 + 1442695040888963407
		return float64(gen>>11) / (1 << 53)
	}
	// Sample counts no other test uses, so the goroutines race to
	// install each memo entry.
	var dists []*Dist
	for _, n := range []int{11, 97, 480, 961} {
		for i := 0; i < 3; i++ {
			dists = append(dists, randomDist(n, i%2 == 1, next))
		}
	}
	type ci struct{ lo, hi float64 }
	got := make([][]ci, 8)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]ci, len(dists))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range dists {
				i := (j + g*5) % len(dists) // a different order per goroutine
				// Each goroutine reads its own copy: MedianCI sorts the
				// samples in place on first use.
				d := *dists[i]
				d.samples = append([]WeightedSample(nil), d.samples...)
				lo, hi := d.MedianCI(0.95)
				got[g][i] = ci{lo, hi}
			}
		}(g)
	}
	wg.Wait()
	for i, d := range dists {
		wantLo, wantHi := referenceMedianCI(d, 0.95)
		for g := range got {
			if got[g][i] != (ci{wantLo, wantHi}) {
				t.Fatalf("goroutine %d dist %d (n=%d): got %v, want (%v,%v)",
					g, i, d.N(), got[g][i], wantLo, wantHi)
			}
		}
	}
}

// BenchmarkMedianCI times a warm bootstrap at the campaign's sample
// count (10 days of 96 windows). Run with -benchmem.
func BenchmarkMedianCI(b *testing.B) {
	gen := uint64(7)
	next := func() float64 {
		gen = gen*6364136223846793005 + 1442695040888963407
		return float64(gen>>11) / (1 << 53)
	}
	d := randomDist(960, true, next)
	d.MedianCI(0.95)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ciSink[0], ciSink[1] = d.MedianCI(0.95)
	}
}

var ciSink [2]float64

func TestMedianCIDegenerateCases(t *testing.T) {
	var empty Dist
	lo, hi := empty.MedianCI(0.95)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatalf("empty dist: got (%v, %v), want NaNs", lo, hi)
	}
	var tiny Dist
	addAll(&tiny, 3, 1, 2)
	lo, hi = tiny.MedianCI(0.95)
	if lo != 1 || hi != 3 {
		t.Fatalf("tiny dist: got (%v, %v), want (1, 3)", lo, hi)
	}
}

func TestSelectKth(t *testing.T) {
	gen := uint64(99)
	next := func() float64 {
		gen = gen*6364136223846793005 + 1442695040888963407
		return float64(gen>>11) / (1 << 53)
	}
	for _, n := range []int{1, 2, 3, 10, 101} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Floor(next() * 10) // plenty of duplicates
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for k := 0; k < n; k++ {
			scratch := append([]float64(nil), vals...)
			if got := selectKth(scratch, k); got != sorted[k] {
				t.Fatalf("n=%d k=%d: got %v want %v", n, k, got, sorted[k])
			}
		}
	}
}
