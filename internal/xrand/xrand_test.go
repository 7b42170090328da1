package xrand

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsIndependent(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("nearby seeds produced %d identical draws", same)
	}
}

func TestSplitDecouples(t *testing.T) {
	a := New(7).Split("alpha")
	b := New(7).Split("beta")
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams with different labels should differ")
	}
	c, d := New(7).Split("alpha"), New(7).Split("alpha")
	for i := 0; i < 100; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("same-label splits of identically seeded parents must agree")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestIntnDegenerate(t *testing.T) {
	r := New(1)
	if got := r.Intn(0); got != 0 {
		t.Fatalf("Intn(0) = %d, want 0", got)
	}
	if got := r.Intn(-3); got != 0 {
		t.Fatalf("Intn(-3) = %d, want 0", got)
	}
	// Degenerate calls must not consume a draw: the stream is unperturbed.
	a, b := New(7), New(7)
	a.Intn(0)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Intn(0) consumed a draw")
	}
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("norm mean = %v, want ~10", mean)
	}
	if math.Abs(sd-3) > 0.05 {
		t.Fatalf("norm stddev = %v, want ~3", sd)
	}
}

func TestExpMean(t *testing.T) {
	r := New(17)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(4)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-4) > 0.1 {
		t.Fatalf("exp mean = %v, want ~4", mean)
	}
}

func TestParetoMinimum(t *testing.T) {
	r := New(19)
	for i := 0; i < 100000; i++ {
		if v := r.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto below xm: %v", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(23)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal non-positive: %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n8 uint8) bool {
		n := int(n8%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedChoiceRespectsWeights(t *testing.T) {
	r := New(37)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoiceDegenerate(t *testing.T) {
	r := New(1)
	if got := r.WeightedChoice([]float64{0, 0}); got != 0 {
		t.Fatalf("zero-sum WeightedChoice = %d, want 0", got)
	}
	if got := r.WeightedChoice(nil); got != 0 {
		t.Fatalf("empty WeightedChoice = %d, want 0", got)
	}
	// Negative weights count as zero, never get chosen.
	for i := 0; i < 100; i++ {
		if got := r.WeightedChoice([]float64{-5, 1, -2}); got != 1 {
			t.Fatalf("WeightedChoice picked index %d with non-positive weight", got)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm(0, 1)
	}
}

func TestDerivePureAndOrderIndependent(t *testing.T) {
	// Derive is a pure function of (seed, keys): repeated calls agree and
	// consume no shared state.
	a := Derive(42, 7, 9).Uint64()
	b := Derive(42, 7, 9).Uint64()
	if a != b {
		t.Fatal("Derive is not a pure function of its arguments")
	}
	// Key order matters: (a, b) and (b, a) are distinct streams.
	if Derive(42, 7, 9).Uint64() == Derive(42, 9, 7).Uint64() {
		t.Fatal("Derive ignores key order")
	}
	// Nearby keys yield unrelated streams.
	seen := map[uint64]bool{}
	for i := uint64(0); i < 64; i++ {
		v := Derive(1, i).Uint64()
		if seen[v] {
			t.Fatalf("key %d collides with an earlier key", i)
		}
		seen[v] = true
	}
	// No keys degrades to New(seed).
	if Derive(5).Uint64() != New(5).Uint64() {
		t.Fatal("keyless Derive should match New")
	}
}

func TestDeriveConcurrentSafe(t *testing.T) {
	// Derive from a shared seed across goroutines: no shared mutation, so
	// -race stays quiet and every goroutine sees its keyed stream.
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			want := Derive(99, uint64(g)).Uint64()
			ok := true
			for i := 0; i < 100; i++ {
				if Derive(99, uint64(g)).Uint64() != want {
					ok = false
				}
			}
			done <- ok
		}(g)
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("keyed stream unstable under concurrency")
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	// Both regimes — Knuth product (mean < 30) and the normal
	// approximation (mean >= 30) — must land near the Poisson mean and
	// variance.
	for _, mean := range []float64{0.5, 4, 25, 60, 400} {
		r := New(77)
		const n = 40000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			k := float64(r.Poisson(mean))
			sum += k
			sumSq += k * k
		}
		m := sum / n
		v := sumSq/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.05 {
			t.Errorf("mean %v: sample mean %v", mean, m)
		}
		// Poisson variance equals the mean.
		if math.Abs(v-mean) > 0.12*mean+0.12 {
			t.Errorf("mean %v: sample variance %v, want ~%v", mean, v, mean)
		}
	}
}

func TestPoissonDegenerate(t *testing.T) {
	r := New(1)
	for _, mean := range []float64{0, -3, math.NaN()} {
		if k := r.Poisson(mean); k != 0 {
			t.Fatalf("Poisson(%v) = %d, want 0", mean, k)
		}
	}
	for i := 0; i < 1000; i++ {
		if k := r.Poisson(1e6); k < 0 {
			t.Fatal("Poisson draw went negative")
		}
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a, b := Derive(5, 0xbeef), Derive(5, 0xbeef)
	for i := 0; i < 200; i++ {
		if ka, kb := a.Poisson(9.5), b.Poisson(9.5); ka != kb {
			t.Fatalf("draw %d diverged: %d vs %d", i, ka, kb)
		}
	}
}

// expSortOracle is the session median as it was computed before ExpKth:
// n Exp draws (with Exp's own rejection of u == 0 written out), sorted.
func expSortOracle(r *Rand, n int, mean float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		for {
			if u := r.Float64(); u > 0 {
				v[i] = -mean * math.Log(u)
				break
			}
		}
	}
	slices.Sort(v)
	return v
}

// TestExpKthMatchesSortedExp: for every n and k, ExpKth returns the bits
// the sorted n Exp draws hold at k, and leaves the stream where those
// draws leave it. Even n is where the index mirror n-1-k is easy to get
// wrong, so every n from 1 to 17 runs, plus 31.
func TestExpKthMatchesSortedExp(t *testing.T) {
	samples := 100_000
	if testing.Short() {
		samples = 5_000
	}
	ns := []int{31}
	for n := 1; n <= 17; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		r := New(uint64(1000 + n))
		buf := make([]uint64, n)
		for s := 0; s < samples; s++ {
			before := *r
			want := expSortOracle(r, n, 0.25)
			// Every k in turn, and the median Observe reads every time.
			for _, k := range []int{s % n, n / 2} {
				kr := before
				if got := kr.ExpKth(buf, k, 0.25); math.Float64bits(got) != math.Float64bits(want[k]) {
					t.Fatalf("n=%d k=%d sample %d: ExpKth %v, sorted Exp %v", n, k, s, got, want[k])
				}
				if kr != *r {
					t.Fatalf("n=%d k=%d sample %d: ExpKth consumed a different number of draws", n, k, s)
				}
			}
		}
	}
}

// TestExpRejectsZero: a zero uniform is redrawn, the same way by Exp and
// ExpKth. xoshiro256** outputs 0 exactly when s[1] is 0.
func TestExpRejectsZero(t *testing.T) {
	zeroFirst := Rand{s: [4]uint64{1, 0, 2, 3}}
	probe := zeroFirst
	if probe.Uint64() != 0 {
		t.Fatal("crafted state does not draw 0 first")
	}
	for n := 1; n <= 4; n++ {
		ref := zeroFirst
		want := expSortOracle(&ref, n, 1)
		if math.IsInf(want[n-1], 0) {
			t.Fatal("oracle did not reject the zero draw")
		}
		for k := range n {
			r := zeroFirst
			if got := r.ExpKth(make([]uint64, n), k, 1); got != want[k] || r != ref {
				t.Fatalf("n=%d k=%d: ExpKth %v (state moved %v), want %v", n, k, got, r != ref, want[k])
			}
		}
	}
	r, ref := zeroFirst, zeroFirst
	if got, want := r.Exp(1), expSortOracle(&ref, 1, 1)[0]; got != want || r != ref {
		t.Fatalf("Exp %v, want %v", got, want)
	}
}

// BenchmarkExpMedian9 is the session median of nine Exp draws by
// ExpKth; BenchmarkExpSort9 is the same median by nine Exp calls and a
// sort.
func BenchmarkExpMedian9(b *testing.B) {
	r := New(1)
	buf := make([]uint64, 9)
	for i := 0; i < b.N; i++ {
		_ = r.ExpKth(buf, 4, 0.25)
	}
}

func BenchmarkExpSort9(b *testing.B) {
	r := New(1)
	v := make([]float64, 9)
	for n := 0; n < b.N; n++ {
		for i := range v {
			v[i] = r.Exp(0.25)
		}
		slices.Sort(v)
	}
}
