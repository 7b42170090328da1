package cable

import (
	"math"
	"testing"

	"beatbgp/internal/geo"
)

func world(t testing.TB) (*Graph, *geo.Catalog) {
	t.Helper()
	cat := geo.World()
	g, err := WorldGraph(cat)
	if err != nil {
		t.Fatalf("WorldGraph: %v", err)
	}
	return g, cat
}

func cityID(t testing.TB, cat *geo.Catalog, name string) int {
	t.Helper()
	c, ok := cat.ByName(name)
	if !ok {
		t.Fatalf("missing city %s", name)
	}
	return c.ID
}

func TestWorldGraphConnected(t *testing.T) {
	g, _ := world(t)
	connected, isolated := g.Connected()
	if len(isolated) > 0 {
		t.Fatalf("isolated cities: %v", isolated)
	}
	if !connected {
		t.Fatal("world graph is not connected")
	}
}

func TestEdgesAtLeastGeodesic(t *testing.T) {
	g, cat := world(t)
	for _, e := range g.Edges() {
		geod := geo.DistanceKm(cat.City(e.A).Loc, cat.City(e.B).Loc)
		if e.Km < geod*0.999 {
			t.Errorf("edge %s-%s shorter than geodesic: %.0f < %.0f",
				cat.City(e.A).Name, cat.City(e.B).Name, e.Km, geod)
		}
	}
}

func TestShortestPathBasics(t *testing.T) {
	g, cat := world(t)
	ny := cityID(t, cat, "NewYork")
	lon := cityID(t, cat, "London")
	p, ok := g.ShortestPath(ny, lon)
	if !ok {
		t.Fatal("no NY-London path")
	}
	// Direct trans-Atlantic cable: geodesic ~5570 km, cable 1.15x ~6400 km.
	if p.Km < 5500 || p.Km > 7000 {
		t.Fatalf("NY-London = %.0f km, want ~6400", p.Km)
	}
	if p.Cities[0] != ny || p.Cities[len(p.Cities)-1] != lon {
		t.Fatalf("endpoints wrong: %v", p.Cities)
	}
	// Path must be a contiguous walk over real edges.
	for i := 0; i+1 < len(p.Cities); i++ {
		found := false
		for _, eid := range g.EdgesAt(p.Cities[i]) {
			if g.Edge(eid).Other(p.Cities[i]) == p.Cities[i+1] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no edge between consecutive path cities %d-%d", p.Cities[i], p.Cities[i+1])
		}
	}
}

func TestShortestPathSelf(t *testing.T) {
	g, cat := world(t)
	ny := cityID(t, cat, "NewYork")
	p, ok := g.ShortestPath(ny, ny)
	if !ok || p.Km != 0 || len(p.Cities) != 1 {
		t.Fatalf("self path = %+v ok=%v", p, ok)
	}
}

func TestShortestPathSymmetric(t *testing.T) {
	g, cat := world(t)
	pairs := [][2]string{
		{"Tokyo", "Frankfurt"},
		{"Mumbai", "CouncilBluffs"},
		{"Sydney", "SaoPaulo"},
		{"Lagos", "Seoul"},
	}
	for _, pr := range pairs {
		a, b := cityID(t, cat, pr[0]), cityID(t, cat, pr[1])
		p1, ok1 := g.ShortestPath(a, b)
		p2, ok2 := g.ShortestPath(b, a)
		if !ok1 || !ok2 {
			t.Fatalf("%v unreachable", pr)
		}
		if math.Abs(p1.Km-p2.Km) > 1e-6 {
			t.Fatalf("%v asymmetric: %.1f vs %.1f", pr, p1.Km, p2.Km)
		}
	}
}

func TestTriangleInequalityOnShortestPaths(t *testing.T) {
	g, cat := world(t)
	a := cityID(t, cat, "London")
	b := cityID(t, cat, "Singapore")
	c := cityID(t, cat, "Dubai")
	ab, _ := g.ShortestPath(a, b)
	ac, _ := g.ShortestPath(a, c)
	cb, _ := g.ShortestPath(c, b)
	if ab.Km > ac.Km+cb.Km+1e-6 {
		t.Fatalf("shortest path violates triangle inequality: %f > %f + %f",
			ab.Km, ac.Km, cb.Km)
	}
}

func TestIndiaWestwardShorterThanEastward(t *testing.T) {
	// The §3.3.2 case study requires the physical map to make India→US
	// shorter westward (Suez + Atlantic) than eastward (trans-Pacific).
	g, cat := world(t)
	mumbai := cityID(t, cat, "Mumbai")
	usc := cityID(t, cat, "CouncilBluffs")
	tokyo := cityID(t, cat, "Tokyo")
	london := cityID(t, cat, "London")

	viaWest, ok1 := g.ShortestPath(mumbai, london)
	westTail, ok2 := g.ShortestPath(london, usc)
	viaEast, ok3 := g.ShortestPath(mumbai, tokyo)
	eastTail, ok4 := g.ShortestPath(tokyo, usc)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatal("missing long-haul paths")
	}
	west := viaWest.Km + westTail.Km
	east := viaEast.Km + eastTail.Km
	if west >= east {
		t.Fatalf("westward %0.f km should beat eastward %0.f km", west, east)
	}
	// The overall shortest path should therefore go west.
	direct, _ := g.ShortestPath(mumbai, usc)
	if direct.Km > west+1e-6 {
		t.Fatalf("direct %0.f km should be <= westward composite %0.f km", direct.Km, west)
	}
}

func TestRTTms(t *testing.T) {
	p := Path{Km: 1000}
	if math.Abs(p.RTTMs()-10) > 1e-9 {
		t.Fatalf("1000 km RTT = %v, want 10 ms", p.RTTMs())
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := newGraph(geo.World())
	if _, err := g.addEdge(1, 1, 0, false); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := g.addEdge(-1, 2, 0, false); err == nil {
		t.Fatal("negative city accepted")
	}
	if _, err := g.addEdge(0, 10_000, 0, false); err == nil {
		t.Fatal("out-of-range city accepted")
	}

	// Extend validates the same way and never touches its receiver.
	w, _ := world(t)
	n, at0 := w.NumEdges(), len(w.EdgesAt(0))
	if _, err := w.Extend([]Segment{{A: 1, B: 1}}); err == nil {
		t.Fatal("Extend accepted a self-loop")
	}
	x, err := w.Extend([]Segment{{A: 1, B: 0, Km: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if w.NumEdges() != n || len(w.EdgesAt(0)) != at0 {
		t.Fatal("Extend modified the graph it extends")
	}
	if e := x.Edge(n); x.NumEdges() != n+1 || e.A != 0 || e.B != 1 || e.Km != 100 || len(x.EdgesAt(0)) != at0+1 {
		t.Fatalf("extended graph: %d edges, new edge %+v", x.NumEdges(), e)
	}
}

func TestNetworkRestrictsRouting(t *testing.T) {
	g, cat := world(t)
	mumbai := cityID(t, cat, "Mumbai")
	chennai := cityID(t, cat, "Chennai")
	singapore := cityID(t, cat, "Singapore")
	hk := cityID(t, cat, "HongKong")
	tokyo := cityID(t, cat, "Tokyo")
	seattle := cityID(t, cat, "Seattle")
	usc := cityID(t, cat, "CouncilBluffs")

	// An eastward-only WAN: India -> Singapore -> HK -> Tokyo -> Seattle ->
	// US Central, built from the physical shortest-path chain between
	// consecutive waypoints. No westward (Suez/Atlantic) edge is included.
	var edgeIDs []int
	waypoints := []int{mumbai, chennai, singapore, hk, tokyo, seattle, usc}
	for w := 0; w+1 < len(waypoints); w++ {
		sp, ok := g.ShortestPath(waypoints[w], waypoints[w+1])
		if !ok {
			t.Fatalf("no physical route between waypoints %d and %d", waypoints[w], waypoints[w+1])
		}
		for i := 0; i+1 < len(sp.Cities); i++ {
			for _, eid := range g.EdgesAt(sp.Cities[i]) {
				if g.Edge(eid).Other(sp.Cities[i]) == sp.Cities[i+1] {
					edgeIDs = append(edgeIDs, eid)
				}
			}
		}
	}

	wan := NewNetwork(g, "eastwan", edgeIDs, 1.0)
	p, ok := wan.Path(mumbai, usc)
	if !ok {
		t.Fatal("WAN cannot route Mumbai->USC")
	}
	full, _ := g.ShortestPath(mumbai, usc)
	if p.Km <= full.Km {
		t.Fatalf("eastward WAN (%.0f km) should be longer than unrestricted west route (%.0f km)",
			p.Km, full.Km)
	}
	// And the WAN must not be able to reach cities outside its footprint.
	if _, ok := wan.Path(mumbai, cityID(t, cat, "London")); ok {
		t.Fatal("WAN routed to a city outside its footprint")
	}
}

func TestNetworkFromCitiesLeasesDisconnectedFootprint(t *testing.T) {
	g, cat := world(t)
	// A footprint with two far-apart cities that share no direct edge.
	cities := []int{cityID(t, cat, "Helsinki"), cityID(t, cat, "CapeTown")}
	n, err := NetworkFromCities(g, "scattered", cities, 1.1)
	if err != nil {
		t.Fatalf("NetworkFromCities: %v", err)
	}
	p, ok := n.Path(cities[0], cities[1])
	if !ok {
		t.Fatal("leased network cannot connect its own footprint")
	}
	full, _ := g.ShortestPath(cities[0], cities[1])
	if p.Km < full.Km {
		t.Fatalf("leased path %.0f km shorter than physical shortest %.0f km", p.Km, full.Km)
	}
}

func TestNetworkFromCitiesEmpty(t *testing.T) {
	g, _ := world(t)
	if _, err := NetworkFromCities(g, "none", nil, 1); err == nil {
		t.Fatal("empty footprint accepted")
	}
}

func TestNetworkStretchApplied(t *testing.T) {
	g, cat := world(t)
	all := make([]int, g.NumEdges())
	for i := range all {
		all[i] = i
	}
	fast := NewNetwork(g, "fast", all, 1.0)
	slow := NewNetwork(g, "slow", all, 1.3)
	a, b := cityID(t, cat, "Paris"), cityID(t, cat, "Warsaw")
	pf, _ := fast.Path(a, b)
	ps, _ := slow.Path(a, b)
	if math.Abs(ps.Km-pf.Km*1.3) > 1e-6 {
		t.Fatalf("stretch not applied: %v vs %v", ps.Km, pf.Km)
	}
}

func TestNearestPresent(t *testing.T) {
	g, cat := world(t)
	all := make([]int, g.NumEdges())
	for i := range all {
		all[i] = i
	}
	n := NewNetwork(g, "all", all, 1.0)
	paris := cityID(t, cat, "Paris")
	got := n.NearestPresent(paris, []int{
		cityID(t, cat, "Tokyo"), cityID(t, cat, "London"), cityID(t, cat, "Sydney"),
	})
	if got != cityID(t, cat, "London") {
		t.Fatalf("nearest to Paris = %d, want London", got)
	}
	if n.NearestPresent(paris, nil) != -1 {
		t.Fatal("empty candidate list should return -1")
	}
}

func TestNetworkCacheConsistency(t *testing.T) {
	g, cat := world(t)
	all := make([]int, g.NumEdges())
	for i := range all {
		all[i] = i
	}
	n := NewNetwork(g, "all", all, 1.0)
	a, b := cityID(t, cat, "Madrid"), cityID(t, cat, "Seoul")
	p1, _ := n.Path(a, b)
	p2, _ := n.Path(a, b) // served from cache
	if p1.Km != p2.Km || len(p1.Cities) != len(p2.Cities) {
		t.Fatal("cached path differs from first computation")
	}
}

func BenchmarkWorldGraphBuild(b *testing.B) {
	cat := geo.World()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WorldGraph(cat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShortestPath(b *testing.B) {
	g, cat := world(b)
	a := cityID(b, cat, "Mumbai")
	z := cityID(b, cat, "CouncilBluffs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.ShortestPath(a, z); !ok {
			b.Fatal("unreachable")
		}
	}
}
