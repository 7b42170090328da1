package cdn

import (
	"errors"
	"math"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/dnsmap"
	"beatbgp/internal/geo"
	"beatbgp/internal/matbgp"
	"beatbgp/internal/netsim"
	"beatbgp/internal/stats"
	"beatbgp/internal/topology"
)

// lowerReference and lowerMatbgp are the two engines a test can hand
// Build: the recursive reference, whose epoch chains take the
// rebuild-fallback path, and the incremental batch engine.
func lowerReference(t *topology.Topo) (bgp.Computer, error) { return bgp.NewReference(t), nil }
func lowerMatbgp(t *topology.Topo) (bgp.Computer, error)    { return matbgp.NewEngine(t) }

// build builds a CDN over a fresh topology on the reference engine.
func build(t testing.TB, seed uint64) (*topology.Topo, *CDN) {
	return buildWith(t, seed, lowerReference)
}

// buildWith is build with the route engine lowered by lower.
func buildWith(t testing.TB, seed uint64, lower func(*topology.Topo) (bgp.Computer, error)) (*topology.Topo, *CDN) {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: seed, EyeballsPerRegion: 10})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(topo, Config{Seed: seed}, lower)
	if err != nil {
		t.Fatal(err)
	}
	return topo, c
}

// TestBuildLowersFinishedTopology: Build lowers the engine once, from
// the topology with every site placed, and Routes returns that engine.
func TestBuildLowersFinishedTopology(t *testing.T) {
	topo, err := topology.Generate(topology.GenConfig{Seed: 1, EyeballsPerRegion: 10})
	if err != nil {
		t.Fatal(err)
	}
	var (
		calls int
		ases  int
		ref   *bgp.Reference
	)
	c, err := Build(topo, Config{Seed: 1}, func(lt *topology.Topo) (bgp.Computer, error) {
		if lt != topo {
			t.Error("lower got a different topology")
		}
		calls++
		ases = lt.NumASes()
		ref = bgp.NewReference(lt)
		return ref, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("lower called %d times, want 1", calls)
	}
	if ases != topo.NumASes() {
		t.Fatalf("lower saw %d ASes, the finished topology has %d", ases, topo.NumASes())
	}
	if got := c.Routes(); got != ref {
		t.Fatalf("Routes() = %v, want the engine lower returned", got)
	}
}

// TestBuildLowerError: a failing lower aborts Build with its error,
// wrapped.
func TestBuildLowerError(t *testing.T) {
	topo, err := topology.Generate(topology.GenConfig{Seed: 1, EyeballsPerRegion: 10})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("engine lowering failed")
	c, err := Build(topo, Config{Seed: 1}, func(*topology.Topo) (bgp.Computer, error) {
		return nil, boom
	})
	if c != nil || !errors.Is(err, boom) {
		t.Fatalf("Build = (%v, %v), want (nil, an error wrapping %v)", c, err, boom)
	}
	if err.Error() == boom.Error() {
		t.Fatalf("error %q is not wrapped", err)
	}
}

func TestBuildShape(t *testing.T) {
	topo, c := build(t, 1)
	if len(c.Sites) < 20 {
		t.Fatalf("%d sites, want ~24", len(c.Sites))
	}
	for _, s := range c.Sites {
		if s.AS.Class != topology.Content {
			t.Fatal("site not a content AS")
		}
		if len(s.AS.Cities) != 1 || s.AS.Cities[0] != s.City {
			t.Fatal("site footprint must be its city")
		}
		hasProvider := false
		for _, nb := range topo.Neighbors(s.AS.ID) {
			if nb.View == topology.ViewProvider {
				hasProvider = true
			}
		}
		if !hasProvider {
			t.Fatalf("site %s has no transit", s.AS.Name)
		}
	}
}

func TestCatchmentsMostlyRegional(t *testing.T) {
	topo, c := build(t, 3)
	cat := topo.Catalog
	sameRegion, total := 0, 0
	for _, p := range topo.Prefixes {
		site, err := c.Catchment(p, nil)
		if err != nil {
			t.Fatalf("prefix %d: %v", p.ID, err)
		}
		total++
		if cat.City(p.City).Region == cat.City(c.Sites[site].City).Region {
			sameRegion++
		}
	}
	frac := float64(sameRegion) / float64(total)
	// Anycast mostly works (the paper's point) but not perfectly.
	if frac < 0.55 {
		t.Fatalf("only %.0f%% of catchments in-region; anycast too broken", frac*100)
	}
	if frac == 1 {
		t.Fatal("catchments perfect; the Figure 3 tail cannot exist")
	}
}

func TestAnycastVsBestUnicast(t *testing.T) {
	topo, c := build(t, 5)
	sim := netsim.New(topo, netsim.Config{Seed: 5}, nil, nil)
	var diffs stats.Dist
	const when = 600
	for i, p := range topo.Prefixes {
		if i%4 != 0 {
			continue
		}
		any, _, err := c.AnycastRTT(sim, p, nil, when)
		if err != nil {
			continue
		}
		best := math.Inf(1)
		for _, s := range c.NearestSites(p, 6) {
			if rtt, err := c.UnicastRTT(sim, p, s, when); err == nil && rtt < best {
				best = rtt
			}
		}
		if math.IsInf(best, 1) {
			continue
		}
		diffs.Add(any-best, p.Weight)
	}
	if diffs.N() < 50 {
		t.Fatalf("only %d comparisons", diffs.N())
	}
	// Shape check (Figure 3): anycast within 10 ms of the best unicast
	// for well over half the traffic, but a real tail exists.
	within10 := diffs.CDF(10)
	if within10 < 0.55 {
		t.Fatalf("anycast within 10ms for only %.0f%% of traffic", within10*100)
	}
	if diffs.Max() < 20 {
		t.Fatal("no anycast tail at all; catchment model too perfect")
	}
}

func TestGroomingChangesCatchments(t *testing.T) {
	topo, c := build(t, 7)
	// Prepending heavily at one site should shed some of its catchment.
	target := 0
	counts := func(g *Grooming) int {
		n := 0
		for _, p := range topo.Prefixes {
			site, err := c.Catchment(p, g)
			if err == nil && site == target {
				n++
			}
		}
		return n
	}
	before := counts(nil)
	after := counts(&Grooming{Prepend: map[int]int{target: 5}})
	if before == 0 {
		t.Skip("site 0 attracts nothing")
	}
	if after >= before {
		t.Fatalf("prepending did not shed load: %d -> %d", before, after)
	}
}

func TestUnicastRIBCached(t *testing.T) {
	_, c := build(t, 9)
	a, err := c.UnicastRIB(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.UnicastRIB(0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("unicast RIB not cached")
	}
	if _, err := c.UnicastRIB(-1); err == nil {
		t.Fatal("bad site index accepted")
	}
}

func TestNearestSitesOrdered(t *testing.T) {
	topo, c := build(t, 11)
	p := topo.Prefixes[0]
	sites := c.NearestSites(p, len(c.Sites))
	loc := topo.Catalog.City(p.City).Loc
	prev := -1.0
	for _, s := range sites {
		d := geo.DistanceKm(loc, topo.Catalog.City(c.Sites[s].City).Loc)
		if d < prev {
			t.Fatal("NearestSites not sorted")
		}
		prev = d
	}
	// SiteDistanceKm ranks agree.
	if c.SiteDistanceKm(p, 0) > c.SiteDistanceKm(p, 1) {
		t.Fatal("rank distances inverted")
	}
}

func TestRedirectorTrainsAndServes(t *testing.T) {
	topo, c := build(t, 13)
	sim := netsim.New(topo, netsim.Config{Seed: 13}, nil, nil)
	m := dnsmap.Build(topo, dnsmap.Config{Seed: 13})
	var sample []topology.Prefix
	for i, p := range topo.Prefixes {
		if i%3 == 0 {
			sample = append(sample, p)
		}
	}
	rd, err := TrainRedirector(c, sim, m, sample, []float64{0, 360, 720}, TrainOpts{KNearest: 4})
	if err != nil {
		t.Fatal(err)
	}
	redirected := 0
	for _, p := range sample {
		choice := rd.Decision(p, m)
		if choice != AnycastChoice {
			redirected++
			if choice < 0 || choice >= len(c.Sites) {
				t.Fatalf("bad decision %d", choice)
			}
		}
		rtt, err := c.ServeRTT(sim, rd, m, p, 1440)
		if err != nil {
			t.Fatalf("serve prefix %d: %v", p.ID, err)
		}
		if rtt <= 0 {
			t.Fatal("non-positive serve RTT")
		}
	}
	if redirected == 0 {
		t.Fatal("redirector never overrides anycast")
	}
	if redirected == len(sample) {
		t.Fatal("redirector always overrides anycast")
	}
}

func TestTrainRedirectorValidation(t *testing.T) {
	topo, c := build(t, 15)
	sim := netsim.New(topo, netsim.Config{Seed: 15}, nil, nil)
	m := dnsmap.Build(topo, dnsmap.Config{Seed: 15})
	if _, err := TrainRedirector(c, sim, m, topo.Prefixes[:5], nil, TrainOpts{}); err == nil {
		t.Fatal("no training times accepted")
	}
}

func BenchmarkAnycastRTT(b *testing.B) {
	topo, c := build(b, 1)
	sim := netsim.New(topo, netsim.Config{Seed: 1}, nil, nil)
	p := topo.Prefixes[0]
	if _, _, err := c.AnycastRTT(sim, p, nil, 0); err != nil {
		b.Skip("prefix cannot reach anycast")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.AnycastRTT(sim, p, nil, float64(i%5000)); err != nil {
			b.Fatal(err)
		}
	}
}
