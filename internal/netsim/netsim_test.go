package netsim

import (
	"fmt"
	"math"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/delta"
	"beatbgp/internal/faults"
	"beatbgp/internal/geo"
	"beatbgp/internal/netpath"
	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

// fixture builds a generated topology plus one resolved route to the
// first prefix.
type fixture struct {
	topo   *topology.Topo
	prefix topology.Prefix
	route  netpath.Route
	alt    netpath.Route // a second, different resolved route (may be zero)
}

func setup(t testing.TB) fixture {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: 5, EyeballsPerRegion: 6})
	if err != nil {
		t.Fatal(err)
	}
	oracle := bgp.NewOracle(bgp.NewReference(topo))
	res := netpath.NewResolver(topo)
	for _, p := range topo.Prefixes {
		rib, err := oracle.ToPrefix(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, asID := range topo.ByClass(topology.Eyeball) {
			if asID == p.Origin {
				continue
			}
			r := rib.Best(asID)
			if !r.Valid || len(r.Links) == 0 {
				continue
			}
			src := topo.ASes[asID].Cities[0]
			phys, err := res.Resolve(r, src, p.City)
			if err != nil {
				continue
			}
			f := fixture{topo: topo, prefix: p, route: phys}
			// Find an alternate via offers for richer tests.
			for _, off := range rib.OffersTo(asID) {
				if off.Link == r.Link {
					continue
				}
				if alt, err := res.Resolve(off.Route, src, p.City); err == nil {
					f.alt = alt
					break
				}
			}
			return f
		}
	}
	t.Fatal("no usable fixture")
	return fixture{}
}

func TestRTTAboveProp(t *testing.T) {
	f := setup(t)
	s := New(f.topo, Config{Seed: 1}, nil, nil, nil)
	for tm := 0.0; tm < 24*60; tm += 97 {
		rtt := s.RouteRTTMs(f.route, f.prefix, tm)
		if rtt < f.route.PropRTTMs() {
			t.Fatalf("RTT %v below propagation %v", rtt, f.route.PropRTTMs())
		}
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	f := setup(t)
	a := New(f.topo, Config{Seed: 9}, nil, nil, nil)
	b := New(f.topo, Config{Seed: 9}, nil, nil, nil)
	// Query b in a different order to confirm order independence.
	_ = b.RouteRTTMs(f.route, f.prefix, 5000)
	for tm := 0.0; tm < 3000; tm += 333 {
		if av, bv := a.RouteRTTMs(f.route, f.prefix, tm), b.RouteRTTMs(f.route, f.prefix, tm); av != bv {
			t.Fatalf("instances diverge at t=%v: %v vs %v", tm, av, bv)
		}
	}
}

func TestSeedChangesCongestion(t *testing.T) {
	f := setup(t)
	a := New(f.topo, Config{Seed: 1}, nil, nil, nil)
	b := New(f.topo, Config{Seed: 2}, nil, nil, nil)
	diff := false
	for tm := 0.0; tm < 5000; tm += 100 {
		if a.RouteRTTMs(f.route, f.prefix, tm) != b.RouteRTTMs(f.route, f.prefix, tm) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical congestion")
	}
}

func TestSharedFateHitsAllRoutes(t *testing.T) {
	f := setup(t)
	if len(f.alt.Hops) == 0 {
		t.Skip("no alternate route in fixture")
	}
	s := New(f.topo, Config{Seed: 3}, nil, nil, nil)
	// Find a moment with a strong prefix incident.
	base := s.prefixProcFor(f.prefix).baseMs
	found := false
	for tm := 0.0; tm < HorizonMinutes; tm += 7 {
		lm := s.LastMileMs(f.prefix, tm)
		if lm > base+10 {
			found = true
			// Both routes see the same surge in their last-mile component.
			r1 := s.RouteRTTMs(f.route, f.prefix, tm)
			r2 := s.RouteRTTMs(f.alt, f.prefix, tm)
			if r1 < lm || r2 < lm {
				t.Fatalf("a route dodged the shared-fate congestion: %v %v < %v", r1, r2, lm)
			}
			break
		}
	}
	if !found {
		t.Skip("no large prefix incident in horizon (rare seed)")
	}
}

func TestDisableSharedFateAblation(t *testing.T) {
	f := setup(t)
	on := New(f.topo, Config{Seed: 4}, nil, nil, nil)
	off := New(f.topo, Config{Seed: 4, DisableSharedFate: true}, nil, nil, nil)
	base := off.LastMileMs(f.prefix, 0)
	for tm := 0.0; tm < 3*24*60; tm += 13 {
		if off.LastMileMs(f.prefix, tm) != base {
			t.Fatal("ablation still varies last-mile latency")
		}
	}
	varied := false
	for tm := 0.0; tm < 3*24*60; tm += 13 {
		if on.LastMileMs(f.prefix, tm) != on.LastMileMs(f.prefix, 0) {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("default config produced flat last-mile latency")
	}
}

func TestDiurnalShape(t *testing.T) {
	// Peak at 21:00 local, zero at noon.
	if d := diurnal(21*60, 0); math.Abs(d-1) > 1e-9 {
		t.Fatalf("diurnal at 21:00 = %v, want 1", d)
	}
	if d := diurnal(12*60, 0); d != 0 {
		t.Fatalf("diurnal at noon = %v, want 0", d)
	}
	// Monotone rise through the evening.
	if diurnal(18*60, 0) >= diurnal(20*60, 0) {
		t.Fatal("diurnal should rise toward the peak")
	}
	// Phase shifts with longitude: 21:00 UTC is off-peak for a +9h city.
	if diurnal(21*60, 9) >= diurnal(12*60, 9) && diurnal(21*60, 9) > 0.5 {
		t.Fatal("phase offset not applied")
	}
	// Always in [0,1].
	for m := 0.0; m < 48*60; m += 11 {
		d := diurnal(m, -7.5)
		if d < 0 || d > 1 {
			t.Fatalf("diurnal out of range: %v", d)
		}
	}
}

// minRTTMs is the per-window MinRTT, the oracle MinRTTsMs is checked
// against: the minimum of five RouteRTTMs probes across the window
// starting at t, plus the sampling residue keyed by (prefix, window,
// first link).
func (s *Sim) minRTTMs(r netpath.Route, p topology.Prefix, t, windowMin float64) float64 {
	if windowMin <= 0 {
		windowMin = 15
	}
	lo := math.Inf(1)
	const perWindow = 5
	for i := 0; i < perWindow; i++ {
		ti := t + windowMin*float64(i)/perWindow
		if v := s.RouteRTTMs(r, p, ti); v < lo {
			lo = v
		}
	}
	key := p.ID*1_000_003 + int(t/windowMin)
	if len(r.Links) > 0 {
		key = key*31 + r.Links[0]
	}
	return lo + s.rngFor(kindAS+17, key).Exp(0.3)
}

// MinRTTMsPerWindow is the per-window oracle, for the external tests.
var MinRTTMsPerWindow = (*Sim).minRTTMs

// minRTTs runs the batch call over the first windows windows of each
// route.
func minRTTs(s *Sim, routes []netpath.Route, p topology.Prefix, windowMin float64, windows int) [][]float64 {
	dst := make([][]float64, len(routes))
	for j := range dst {
		dst[j] = make([]float64, windows)
	}
	s.MinRTTsMs(routes, p, windowMin, dst)
	return dst
}

// TestDiurnalMatchesMod: the Mod-free reduction equals math.Mod (plus 24
// when negative) at every probe instant of the 10-day grids (15- and
// 7-minute windows) and every phase of the world catalog, at negative
// inputs, −0, exact multiples of 24 and huge values; diurnal's bits equal
// the math.Mod form's everywhere.
func TestDiurnalMatchesMod(t *testing.T) {
	modHour := func(x float64) float64 {
		r := math.Mod(x, 24)
		if r < 0 {
			r += 24
		}
		return r
	}
	modDiurnal := func(tMinutes, phaseHours float64) float64 {
		h := modHour(tMinutes/60 + phaseHours)
		if h < 12 {
			h += 24
		}
		if h < 17 || h > 25 {
			return 0
		}
		x := math.Sin(math.Pi * (h - 17) / 8)
		return x * x
	}
	check := func(tMinutes, phase float64) {
		t.Helper()
		x := tMinutes/60 + phase
		if got, want := hourOfDay(x), modHour(x); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("hourOfDay(%v) = %v, math.Mod form %v", x, got, want)
		}
		if got, want := diurnal(tMinutes, phase), modDiurnal(tMinutes, phase); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("diurnal(%v, %v) = %v, math.Mod form %v", tMinutes, phase, got, want)
		}
	}
	phases := []float64{0, math.Copysign(0, -1), -12, 12, -7.5, 24, -24}
	for _, c := range geo.World().All() {
		phases = append(phases, c.Loc.Lon/15)
	}
	for _, windowMin := range []float64{15, 7} {
		for w := 0; w < int(10*24*60/windowMin); w++ {
			start := float64(w) * windowMin
			for i := 0; i < probes; i++ {
				for _, ph := range phases {
					check(probeAt(start, windowMin, i), ph)
				}
			}
		}
	}
	for k := -1000.0; k <= 1000; k++ {
		check(k*24*60, 0)        // exact multiples of 24 hours
		check(k*24*60-1e-9, 0)   // just below them
		check(-k*24*60, -1e-300) // just below zero
		check(math.Nextafter(k*24*60, math.Inf(-1)), 0)
	}
	for _, x := range []float64{math.Copysign(0, -1), -1e-300, -1e-17, -24, -48, 1 << 49, -(1 << 49), 1 << 50, -(1 << 51), 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		check(x*60, 0)
	}
	rng := xrand.New(3)
	for range 200_000 {
		check(rng.Uniform(-1e7, 1e7), rng.Uniform(-12, 12))
		// Hours of every magnitude up to 2⁷⁰, either sign, integers
		// included: the reduction's exact range and beyond it.
		x := math.Ldexp(rng.Uniform(1, 2), rng.Intn(70))
		if rng.Bool(0.5) {
			x = math.Round(x)
		}
		if rng.Bool(0.5) {
			x = -x
		}
		check(x*60, 0)
	}
}

func TestMinRTTAtMostMaxOfWindow(t *testing.T) {
	f := setup(t)
	s := New(f.topo, Config{Seed: 6}, nil, nil, nil)
	for w, minRTT := range minRTTs(s, []netpath.Route{f.route}, f.prefix, 15, 96)[0] {
		tm := float64(w) * 15
		// MinRTT must be at least the propagation floor and at most the
		// max instantaneous RTT in the window plus the sampling residue.
		if minRTT < f.route.PropRTTMs() {
			t.Fatalf("MinRTT %v below propagation", minRTT)
		}
		maxInWindow := 0.0
		for i := 0; i < 15; i++ {
			if v := s.RouteRTTMs(f.route, f.prefix, tm+float64(i)); v > maxInWindow {
				maxInWindow = v
			}
		}
		if minRTT > maxInWindow+5 {
			t.Fatalf("MinRTT %v far above window max %v", minRTT, maxInWindow)
		}
	}
}

func TestMinRTTStableAcrossCalls(t *testing.T) {
	f := setup(t)
	s := New(f.topo, Config{Seed: 8}, nil, nil, nil)
	routes := []netpath.Route{f.route}
	a := minRTTs(s, routes, f.prefix, 15, 8)
	b := minRTTs(s, routes, f.prefix, 15, 96) // grows the city series
	for w := range a[0] {
		if a[0][w] != b[0][w] {
			t.Fatalf("window %d: MinRTT not stable: %v vs %v", w, a[0][w], b[0][w])
		}
	}
}

func TestLossRateBounds(t *testing.T) {
	f := setup(t)
	s := New(f.topo, Config{Seed: 10}, nil, nil, nil)
	for tm := 0.0; tm < 24*60; tm += 37 {
		l := s.LossRate(f.route, f.prefix, tm)
		if l < 0.0005 || l > 0.2 {
			t.Fatalf("loss rate %v out of bounds", l)
		}
	}
}

func TestLinkFailures(t *testing.T) {
	f := setup(t)
	s := New(f.topo, Config{Seed: 12, LinkFailuresPerDay: 2}, nil, nil, nil)
	link := f.route.Links[0]
	down := 0.0
	for tm := 0.0; tm < 10*24*60; tm++ {
		if s.LinkFailed(link, tm) {
			down++
		}
	}
	if down == 0 {
		t.Fatal("no failures with 2/day over 10 days")
	}
	wantDown := stochasticDowntime(s, link, 0, 10*24*60)
	if math.Abs(down-wantDown) > wantDown*0.1+5 {
		t.Fatalf("sampled downtime %v vs scheduled %v", down, wantDown)
	}
	// RouteUp is false exactly when some link failed.
	anyDownMoment := -1.0
	for tm := 0.0; tm < 10*24*60; tm++ {
		if s.LinkFailed(link, tm) {
			anyDownMoment = tm
			break
		}
	}
	if anyDownMoment >= 0 && s.RouteUp(f.route, anyDownMoment) {
		t.Fatal("RouteUp true while a link is failed")
	}
}

func TestScaleLinkFailures(t *testing.T) {
	f := setup(t)
	link := f.route.Links[0]
	base := New(f.topo, Config{Seed: 14, LinkFailuresPerDay: 0.5}, nil, nil, nil)
	scales := map[int]float64{link: 10}
	scaled := New(f.topo, Config{Seed: 14, LinkFailuresPerDay: 0.5}, nil, nil, scales)
	scales[link] = 1 // the Sim holds its own copy
	if b, s2 := stochasticDowntime(base, link, 0, HorizonMinutes), stochasticDowntime(scaled, link, 0, HorizonMinutes); s2 <= b {
		t.Fatalf("scaled downtime %v not above base %v", s2, b)
	}
}

func TestPersistentImpairmentExists(t *testing.T) {
	f := setup(t)
	s := New(f.topo, Config{Seed: 16}, nil, nil, nil)
	impaired := 0
	for l := range f.topo.Links {
		if s.linkProcFor(l).impairMs > 0 {
			impaired++
		}
	}
	frac := float64(impaired) / float64(len(f.topo.Links))
	if frac < 0.02 || frac > 0.15 {
		t.Fatalf("impaired link fraction = %v, want ~0.06", frac)
	}
}

// BenchmarkMinRTT is one day of 15-minute windows over one route, the
// batch form; ns/window is the per-window cost.
func BenchmarkMinRTT(b *testing.B) {
	f := setup(b)
	s := New(f.topo, Config{Seed: 1}, nil, nil, nil)
	routes := []netpath.Route{f.route}
	dst := [][]float64{make([]float64, 96)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MinRTTsMs(routes, f.prefix, 15, dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst[0])), "ns/window")
}

// TestCloneBitIdentical: a clone samples the same world as its parent —
// the per-worker state-factory contract of the parallel runtime.
func TestCloneBitIdentical(t *testing.T) {
	f := setup(t)
	parent := New(f.topo, Config{Seed: 11}, nil, nil, nil)
	routes := []netpath.Route{f.route}
	// Warm the parent out of order relative to how the clone will query.
	_ = minRTTs(parent, routes, f.prefix, 15, 24)
	clone := parent.Clone()
	pa, cl := minRTTs(parent, routes, f.prefix, 15, 700), minRTTs(clone, routes, f.prefix, 15, 700)
	for w := range pa[0] {
		if pa[0][w] != cl[0][w] {
			t.Fatalf("window %d: clone MinRTT %v != parent %v", w, cl[0][w], pa[0][w])
		}
	}
	for _, tm := range []float64{0, 45, 300, 1440, 9999} {
		if a, b := parent.LastMileMs(f.prefix, tm), clone.LastMileMs(f.prefix, tm); a != b {
			t.Fatalf("t=%v: clone LastMile %v != parent %v", tm, b, a)
		}
		if a, b := parent.RouteUp(f.route, tm), clone.RouteUp(f.route, tm); a != b {
			t.Fatalf("t=%v: clone RouteUp %v != parent %v", tm, b, a)
		}
	}
}

// TestCloneCarriesFailureScales: the failure-rate scales, the injected
// epoch sequence and the storm timeline bound at construction must shape
// the clone's answers identically.
func TestCloneCarriesFailureScales(t *testing.T) {
	f := setup(t)
	if len(f.route.Links) == 0 {
		t.Skip("route crosses no interdomain link")
	}
	link := f.route.Links[0]
	seq, err := delta.Compile([]delta.Event{
		{At: 100, Link: link, Down: true},
		{At: 200, Link: link, Down: false},
	}, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := faults.New(f.topo, []faults.Event{{
		Kind: faults.CongestionStorm, Start: 300, Duration: 60,
		Target: f.topo.Links[link].Cities[0], MagnitudeMs: 40,
	}})
	if err != nil {
		t.Fatal(err)
	}
	parent := New(f.topo, Config{Seed: 3}, seq, tl, map[int]float64{link: 50})
	clone := parent.Clone()
	a := stochasticDowntime(parent, link, 0, 16*24*60)
	b := stochasticDowntime(clone, link, 0, 16*24*60)
	if a != b {
		t.Fatalf("clone downtime %v != parent %v", b, a)
	}
	if !parent.LinkFailed(link, 150) || !clone.LinkFailed(link, 150) {
		t.Fatal("injected sequence not honored by the parent and its clone")
	}
	for _, tm := range []float64{99, 100, 150, 199.999, 200, 330, 2000} {
		if pa, cl := parent.LinkFailed(link, tm), clone.LinkFailed(link, tm); pa != cl {
			t.Fatalf("t=%v: clone LinkFailed %v != parent %v", tm, cl, pa)
		}
	}
	bare := New(f.topo, Config{Seed: 3}, nil, nil, nil)
	if got := parent.LinkMs(link, 330) - bare.LinkMs(link, 330); math.Abs(got-40) > 1e-9 {
		t.Fatalf("storm adds %v ms to the parent, want 40", got)
	}
	if pa, cl := parent.LinkMs(link, 330), clone.LinkMs(link, 330); pa != cl {
		t.Fatalf("clone storm LinkMs %v != parent %v", cl, pa)
	}
}

// stochasticDowntime sums the link's drawn outage minutes over [t0, t1),
// straight from its failure schedule.
func stochasticDowntime(s *Sim, link int, t0, t1 float64) float64 {
	total := 0.0
	for _, in := range s.failSchedule(link) {
		lo, hi := math.Max(in.start, t0), math.Min(in.end, t1)
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// TestConcurrentQueries races eight goroutines under -race, so they
// contend on installing every memo slot: first all over one fresh Sim,
// then each over its own clone of a fresh parent. Each walks the same
// queries (MinRTTsMs at two window counts, so a short diurnal series is
// replaced by a longer one, LastMileMs, LinkMs, LinkFailed, LossRate) in
// its own order, and every answer must equal a serial fresh Sim's (the
// batch answers are checked against the per-window oracle). A
// vantage-point prefix ID far past the topology's prefixes exercises the
// memo's off-table path.
func TestConcurrentQueries(t *testing.T) {
	f := setup(t)
	vp := topology.Prefix{ID: 1_000_000, Origin: f.prefix.Origin, City: f.prefix.City, Weight: 1}
	if vp.ID < len(f.topo.Prefixes) {
		t.Fatalf("vantage-point prefix %d inside the topology's %d prefixes", vp.ID, len(f.topo.Prefixes))
	}
	prefixes := []topology.Prefix{f.prefix, vp}
	for i := 0; i < len(f.topo.Prefixes); i += 7 {
		prefixes = append(prefixes, f.topo.Prefixes[i])
	}
	routes := []netpath.Route{f.route}
	if len(f.alt.Links) > 0 {
		routes = append(routes, f.alt)
	}
	// A query answers with the bits of its float, or a digest of the
	// bits of a whole batch; want, when set, is its answer on the serial
	// Sim.
	type query struct {
		run  func(s *Sim) uint64
		want func(s *Sim) uint64
	}
	float := func(q func(s *Sim) float64) query {
		return query{run: func(s *Sim) uint64 { return math.Float64bits(q(s)) }}
	}
	digest := func(series [][]float64) uint64 {
		h := uint64(14695981039346656037)
		for _, vs := range series {
			for _, v := range vs {
				h = (h ^ math.Float64bits(v)) * 1099511628211
			}
		}
		return h
	}
	queries := func() []query {
		const windowMin = 15
		var queries []query
		for _, p := range prefixes {
			for _, windows := range []int{24, 200} {
				queries = append(queries, query{
					run: func(s *Sim) uint64 { return digest(minRTTs(s, routes, p, windowMin, windows)) },
					want: func(s *Sim) uint64 {
						oracle := make([][]float64, len(routes))
						for j, r := range routes {
							for w := 0; w < windows; w++ {
								oracle[j] = append(oracle[j], s.minRTTMs(r, p, float64(w)*windowMin, windowMin))
							}
						}
						return digest(oracle)
					},
				})
			}
		}
		for _, tm := range []float64{0, 611, 1260, 4000, 13000} {
			for _, p := range prefixes {
				queries = append(queries, float(func(s *Sim) float64 { return s.LastMileMs(p, tm) }))
				for _, r := range routes {
					queries = append(queries, float(func(s *Sim) float64 { return s.LossRate(r, p, tm) }))
				}
			}
			for l := range f.topo.Links {
				queries = append(queries,
					float(func(s *Sim) float64 { return s.LinkMs(l, tm) }),
					query{run: func(s *Sim) uint64 {
						if s.LinkFailed(l, tm) {
							return 1
						}
						return 0
					}})
			}
		}
		return queries
	}()
	const workers = 8
	race := func(t *testing.T, simFor func() *Sim) {
		serial := New(f.topo, Config{Seed: 13}, nil, nil, nil)
		want := make([]uint64, len(queries))
		for i, q := range queries {
			if q.want != nil {
				want[i] = q.want(serial)
			} else {
				want[i] = q.run(serial)
			}
		}
		errs := make(chan error, workers)
		for g := 0; g < workers; g++ {
			go func() {
				s := simFor()
				n := len(queries)
				for j := 0; j < n; j++ {
					// Even goroutines walk forward from a per-goroutine
					// offset, odd ones backward.
					i := (j + g*n/workers) % n
					if g%2 == 1 {
						i = n - 1 - i
					}
					if got := queries[i].run(s); got != want[i] {
						errs <- fmt.Errorf("goroutine %d query %d: %#x != serial %#x", g, i, got, want[i])
						return
					}
				}
				errs <- nil
			}()
		}
		for g := 0; g < workers; g++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("shared", func(t *testing.T) {
		shared := New(f.topo, Config{Seed: 13}, nil, nil, nil)
		race(t, func() *Sim { return shared })
	})
	t.Run("clones", func(t *testing.T) {
		parent := New(f.topo, Config{Seed: 13}, nil, nil, nil)
		race(t, parent.Clone)
	})
}
