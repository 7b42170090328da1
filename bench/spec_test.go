package main

import (
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the driver must name the same workloads and
// metrics: the pipeline reads the file, the runs print what spec.go
// lists.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := readBenchmarkJSON(root)
	if err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the driver's default is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the driver", i, w.Name, workloads[i])
		}
	}
	direction := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	seen := map[string]bool{}
	if len(bj.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the driver (at most 16)", len(bj.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != direction(d.higher) {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the driver", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("%s: not a valid, unused name", m.Name)
		}
		seen[m.Name] = true
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the driver (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != direction(d.higher) {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the driver", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("%s: not a valid, unused name", m.Name)
		}
		seen[m.Name] = true
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// rule the pipeline's spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5}, // Python extrapolates past two points
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// The tail percentile is the highest with ten samples beyond it, capped
// at p99 and never below the median.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0.5}, {20, 0.5}, {30, 1 - 10.0/30}, {400, 0.975}, {1000, 0.99}, {100000, 0.99}} {
		if got := tailPercentile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.5); got != 5 {
		t.Errorf("median by nearest rank of 1..10 = %v, want 5", got)
	}
	if got := percentile(sorted, 0.99); got != 10 {
		t.Errorf("p99 of 1..10 = %v, want 10", got)
	}
}

// A span's self time is its duration minus what its children cover, and
// a layer called several times in one request counts once, summed.
func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "request", Start: 0, End: 1000_000, Parent: -1, Req: 7},
		{Name: "answer", Start: 100_000, End: 500_000, Parent: 0, Req: 7},
		{Name: "stage", Start: 150_000, End: 250_000, Parent: 1, Req: 7},
		{Name: "stage", Start: 300_000, End: 450_000, Parent: 1, Req: 7},
		{Name: "request", Start: 2000_000, End: 2300_000, Parent: -1, Req: 8},
	}}
	st := tr.byName()
	if got := st["request"].self[7]; got != 600 {
		t.Errorf("request 7 self time %v us, want 600 (1000 - 400 under answer)", got)
	}
	if got := st["answer"].self[7]; got != 150 {
		t.Errorf("answer self time %v us, want 150 (400 - 100 - 150 under stages)", got)
	}
	if got, calls := st["stage"].total[7], st["stage"].calls; got != 250 || calls != 2 {
		t.Errorf("stage: %v us over %d calls, want 250 over 2", got, calls)
	}
	if got := st["request"].self[8]; got != 300 {
		t.Errorf("request 8 (no children) self time %v us, want its duration 300", got)
	}
	var off *tracer
	off.call("x", -1, 0, func() {})
	off.end(off.begin("y", -1, 0)) // a nil tracer records nothing and does not panic
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same", steady, steady, false, 0.1, "ok"},
		{"slower, lower is better", steady, scale(steady, 1.2), false, 0.1, "regressed"},
		{"slower within bound", steady, scale(steady, 1.05), false, 0.1, "ok"},
		{"higher, higher is better", steady, scale(steady, 1.2), true, 0.1, "ok"},
		{"lower, higher is better", steady, scale(steady, 0.8), true, 0.1, "regressed"},
		{"noisy", []float64{60, 140, 100, 80, 120, 100, 70, 130, 90, 110}, steady, false, 0.1, "unresolved"},
		{"noisy but every run better", []float64{160, 240, 200, 180, 220, 200, 170, 230, 190, 210}, steady, false, 0.1, "ok"},
	} {
		if got, _ := verdict(c.a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// The campaign's stdout is compared section by section: a change in a
// stable cell's section moves the digest, one in an unstable cell's
// does not, and is reported on its own.
func TestDigestSections(t *testing.T) {
	out := func(fig1, xavail string) []byte {
		return []byte("\n# fig1\n== fig1 ==\n# a table\nrow " + fig1 + "\n\n# xavail\n== xavail ==\nrow " + xavail + "\n\n# apni\nrow 3\n")
	}
	base, baseMoved := digestSections(out("1", "2"))
	same, _ := digestSections(out("1", "2"))
	if base != same {
		t.Fatal("equal stdout, different digests")
	}
	if !unstableCells["xavail"] {
		t.Skip("xavail is no longer listed as unstable")
	}
	if d, moved := digestSections(out("1", "9")); d != base || moved["xavail"] == baseMoved["xavail"] {
		t.Errorf("a change in xavail's section: digest moved=%v, section digest moved=%v; want false, true", d != base, moved["xavail"] != baseMoved["xavail"])
	}
	if d, _ := digestSections(out("9", "2")); d == base {
		t.Error("a change in fig1's section left the digest where it was")
	}
	if strings.Contains(base, " ") || len(base) != 16 {
		t.Errorf("digest %q is not 16 hex digits", base)
	}
}

// The synthetic graph and the plan drawn over it depend on the seed and
// on nothing else.
func TestSynthIsSeeded(t *testing.T) {
	a, b, c := synth(subRand(1, 4)), synth(subRand(1, 4)), synth(subRand(2, 4))
	if len(a.links) != synthTier1*(synthTier1-1)/2+2*synthTransit+2*synthStub {
		t.Fatalf("%d links", len(a.links))
	}
	same, differs := true, false
	for i := range a.links {
		same = same && a.links[i] == b.links[i]
		differs = differs || a.links[i] != c.links[i]
	}
	if !same || !differs {
		t.Errorf("same seed equal: %v; other seed differs: %v", same, differs)
	}
	l := a.links[uplink(3, 1)]
	if l.A != transitAS(3) || l.B >= synthTier1 {
		t.Errorf("uplink(3,1) is %+v, not transit 3's link into the clique", l)
	}
	if l := a.links[stubLink(7, 1)]; l.A != stubAS(7) || l.B < synthTier1 || l.B >= synthTier1+synthTransit {
		t.Errorf("stubLink(7,1) is %+v, not stub 7's second link to a transit", l)
	}
	p := drawPlan(subRand(1, 5), a)
	if n := len(p.origins); n != synthTier1+sweepTransitCols+sweepStubCols {
		t.Errorf("%d columns in the plan", n)
	}
	seen := map[int]bool{}
	for _, o := range p.origins {
		if seen[o] {
			t.Errorf("AS %d sampled twice", o)
		}
		seen[o] = true
	}
	if len(p.flaps) != sweepFlaps {
		t.Errorf("%d flaps in the plan", len(p.flaps))
	}
	// Exactly sweepConeFlaps of the flapped transits are sampled
	// origins, and no flapped transit has a sampled stub below it.
	own, below := 0, 0
	for i := 0; i < len(p.flaps); i += 2 {
		v := a.links[p.flaps[i]].A
		for _, o := range p.origins {
			if o == v {
				own++
			}
			if o >= stubAS(0) && (a.links[stubLink(o-stubAS(0), 0)].B == v || a.links[stubLink(o-stubAS(0), 1)].B == v) {
				below++
			}
		}
	}
	if own != sweepConeFlaps || below != 0 {
		t.Errorf("%d flapped transits are sampled origins (want %d), %d have a sampled stub below them (want 0)", own, sweepConeFlaps, below)
	}
}

// A run reads its medians over the quiet passes, topped up with the
// least disturbed of the others until a third of the passes are in.
func TestQuietPasses(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0, 0.01, 0.005}, []int{0, 1, 2}},
		{[]float64{0.3, 0.01, 0.2, 0, 0.1, 0.15}, []int{1, 3}},
		{[]float64{0.3, 0.01, 0.2, 0.1, 0.1, 0.15, 0.2}, []int{1, 3, 4}},
		{[]float64{0.3, 0.2}, []int{1}},
		{nil, []int{}},
	} {
		got := quietPasses(newReport("t"), "passes", c.steal)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("quietPasses(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
	if got := pick([]float64{10, 20, 30}, []int{0, 2}); !reflect.DeepEqual(got, []float64{10, 30}) {
		t.Errorf("pick = %v", got)
	}
}
