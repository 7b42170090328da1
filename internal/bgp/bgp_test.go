package bgp

import (
	"testing"

	"beatbgp/internal/cable"
	"beatbgp/internal/geo"
	"beatbgp/internal/topology"
)

// tinyTopo builds a small hand-wired hierarchy for exact assertions:
//
//	     T1a ---- T1b        (tier-1 peer clique)
//	    /    \       \
//	  TRa     TRb     TRc    (transits; TRa-TRb peer)
//	  /  \      \      \
//	EYE1  EYE2   EYE3   EYE4 (eyeballs; EYE2-EYE3 peer)
//
// All ASes are placed in big hub cities so every pair that needs a link
// shares a city.
func tinyTopo(t *testing.T) (*topology.Topo, map[string]int) {
	t.Helper()
	catalog := geo.World()
	graph, err := cable.WorldGraph(catalog)
	if err != nil {
		t.Fatal(err)
	}
	topo := &topology.Topo{Catalog: catalog, Graph: graph}
	city := func(name string) int {
		c, ok := catalog.ByName(name)
		if !ok {
			t.Fatalf("city %s", name)
		}
		return c.ID
	}
	hub := []int{city("NewYork"), city("London"), city("Frankfurt"), city("Tokyo")}
	ids := map[string]int{}
	add := func(name string, class topology.Class, cities []int) {
		a, err := topo.AddAS(len(ids)+1, name, class, geo.NorthAmerica, cities, 1.1, topology.EarlyExit)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = a.ID
	}
	add("T1a", topology.Tier1, hub)
	add("T1b", topology.Tier1, hub)
	add("TRa", topology.Transit, hub)
	add("TRb", topology.Transit, hub)
	add("TRc", topology.Transit, hub)
	add("EYE1", topology.Eyeball, hub[:2])
	add("EYE2", topology.Eyeball, hub[:2])
	add("EYE3", topology.Eyeball, hub[:2])
	add("EYE4", topology.Eyeball, hub[:2])
	conn := func(a, b string, rel topology.Rel) {
		if _, err := topo.Connect(ids[a], ids[b], rel, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	conn("T1a", "T1b", topology.P2P)
	conn("TRa", "T1a", topology.C2P)
	conn("TRb", "T1a", topology.C2P)
	conn("TRc", "T1b", topology.C2P)
	conn("TRa", "TRb", topology.P2P)
	conn("EYE1", "TRa", topology.C2P)
	conn("EYE2", "TRa", topology.C2P)
	conn("EYE3", "TRb", topology.C2P)
	conn("EYE4", "TRc", topology.C2P)
	conn("EYE2", "EYE3", topology.P2P)
	return topo, ids
}

func route(t *testing.T, topo *topology.Topo, anns []Announcement, as int) Route {
	t.Helper()
	rib, err := Compute(topo, anns)
	if err != nil {
		t.Fatal(err)
	}
	return rib.Best(as)
}

func pathNames(topo *topology.Topo, r Route) []string {
	var out []string
	for _, id := range r.Path {
		out = append(out, topo.ASes[id].Name)
	}
	return out
}

func eq(a []string, b ...string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCustomerRoutePreferred(t *testing.T) {
	topo, ids := tinyTopo(t)
	// TRa's route to EYE1 must be the direct customer route.
	r := route(t, topo, []Announcement{{Origin: ids["EYE1"]}}, ids["TRa"])
	if !r.Valid || r.Src != SrcCustomer {
		t.Fatalf("TRa->EYE1 = %+v, want customer route", r)
	}
	if !eq(pathNames(topo, r), "TRa", "EYE1") {
		t.Fatalf("path = %v", pathNames(topo, r))
	}
}

func TestPeerPreferredOverProvider(t *testing.T) {
	topo, ids := tinyTopo(t)
	// EYE2's route to EYE3: the direct peering (2 hops) must beat the
	// transit path EYE2-TRa-TRb-EYE3.
	r := route(t, topo, []Announcement{{Origin: ids["EYE3"]}}, ids["EYE2"])
	if r.Src != SrcPeer {
		t.Fatalf("EYE2->EYE3 src = %v, want peer", r.Src)
	}
	if !eq(pathNames(topo, r), "EYE2", "EYE3") {
		t.Fatalf("path = %v", pathNames(topo, r))
	}
	// TRa's route to EYE3: via its peer TRb (customer route of TRb),
	// not up through T1a.
	r = route(t, topo, []Announcement{{Origin: ids["EYE3"]}}, ids["TRa"])
	if r.Src != SrcPeer || !eq(pathNames(topo, r), "TRa", "TRb", "EYE3") {
		t.Fatalf("TRa->EYE3 = %v src=%v", pathNames(topo, r), r.Src)
	}
}

func TestProviderRouteWhenNoOther(t *testing.T) {
	topo, ids := tinyTopo(t)
	// EYE1 reaches EYE4 only via providers: EYE1-TRa-T1a-T1b-TRc-EYE4.
	r := route(t, topo, []Announcement{{Origin: ids["EYE4"]}}, ids["EYE1"])
	if r.Src != SrcProvider {
		t.Fatalf("src = %v, want provider", r.Src)
	}
	if !eq(pathNames(topo, r), "EYE1", "TRa", "T1a", "T1b", "TRc", "EYE4") {
		t.Fatalf("path = %v", pathNames(topo, r))
	}
}

func TestNoValley(t *testing.T) {
	topo, ids := tinyTopo(t)
	// EYE4's route to EYE2 must NOT use the EYE2-EYE3 peering as a valley
	// (EYE3 would have to export a peer route to its provider TRb).
	r := route(t, topo, []Announcement{{Origin: ids["EYE2"]}}, ids["EYE4"])
	names := pathNames(topo, r)
	for _, nm := range names {
		if nm == "EYE3" {
			t.Fatalf("valley through EYE3: %v", names)
		}
	}
}

func TestPrependingShiftsChoice(t *testing.T) {
	topo, ids := tinyTopo(t)
	// EYE3 reaches EYE2 via the direct peering (len 2) normally. With the
	// origin prepending 3 extra hops, the peering path (len 5) loses to...
	// nothing shorter exists via transit (len 4 provider) — but local
	// preference keeps peer above provider regardless of length. So
	// instead verify prepending lengthens the chosen path.
	plain := route(t, topo, []Announcement{{Origin: ids["EYE2"]}}, ids["EYE3"])
	prep := route(t, topo, []Announcement{{Origin: ids["EYE2"], Prepend: 3}}, ids["EYE3"])
	if prep.PathLen() != plain.PathLen()+3 {
		t.Fatalf("prepend: len %d vs %d", prep.PathLen(), plain.PathLen())
	}
	// Within the same preference class prepending does change selection:
	// TRa hears EYE1's customer route at len 2; with prepending TRa's
	// path grows accordingly.
	prep2 := route(t, topo, []Announcement{{Origin: ids["EYE1"], Prepend: 2}}, ids["TRa"])
	if prep2.PathLen() != 4 {
		t.Fatalf("prepended customer path len = %d, want 4", prep2.PathLen())
	}
}

func TestSuppressLinks(t *testing.T) {
	topo, ids := tinyTopo(t)
	// Find EYE2's link to TRa and suppress it: EYE2 then reachable only
	// via the EYE2-EYE3 peering, so TRa must route via TRb-EYE3? No —
	// EYE3 does not export its peer route to TRb (valley-free), so TRa
	// loses reachability entirely.
	var link int = -1
	for _, nb := range topo.Neighbors(ids["EYE2"]) {
		if nb.Other == ids["TRa"] {
			link = nb.Link
		}
	}
	if link < 0 {
		t.Fatal("no EYE2-TRa link")
	}
	rib, err := Compute(topo, []Announcement{{
		Origin:        ids["EYE2"],
		SuppressLinks: map[int]bool{link: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rib.Best(ids["TRa"]).Valid {
		t.Fatalf("TRa still reaches suppressed EYE2: %v", pathNames(topo, rib.Best(ids["TRa"])))
	}
	if !rib.Best(ids["EYE3"]).Valid {
		t.Fatal("EYE3 lost its peer route")
	}
}

func TestAnycastPicksNearerOrigin(t *testing.T) {
	topo, ids := tinyTopo(t)
	// Anycast from EYE1 (under TRa) and EYE4 (under TRc): EYE2 should
	// reach the EYE1 instance (3 AS hops via TRa) rather than EYE4
	// (5 hops via the tier-1s).
	rib, err := Compute(topo, []Announcement{{Origin: ids["EYE1"]}, {Origin: ids["EYE4"]}})
	if err != nil {
		t.Fatal(err)
	}
	r := rib.Best(ids["EYE2"])
	if r.Origin() != ids["EYE1"] {
		t.Fatalf("EYE2 caught by %s, want EYE1", topo.ASes[r.Origin()].Name)
	}
	// Both origins keep themselves.
	if rib.Best(ids["EYE4"]).Origin() != ids["EYE4"] {
		t.Fatal("origin EYE4 does not prefer itself")
	}
}

func TestOffersRespectExportPolicy(t *testing.T) {
	topo, ids := tinyTopo(t)
	rib, err := Compute(topo, []Announcement{{Origin: ids["EYE4"]}})
	if err != nil {
		t.Fatal(err)
	}
	// EYE3's peer EYE2 must not offer its provider route to EYE4.
	for _, off := range rib.OffersTo(ids["EYE3"]) {
		if off.Neighbor == ids["EYE2"] {
			t.Fatalf("EYE2 offered a provider route across the peering: %+v", off)
		}
	}
	// EYE3's provider TRb must offer (providers export everything).
	found := false
	for _, off := range rib.OffersTo(ids["EYE3"]) {
		if off.Neighbor == ids["TRb"] {
			found = true
			if off.Route.Path[0] != ids["EYE3"] {
				t.Fatalf("offer path must start at the receiving AS: %v", off.Route.Path)
			}
		}
	}
	if !found {
		t.Fatal("provider TRb made no offer")
	}
}

func TestComputeErrors(t *testing.T) {
	topo, _ := tinyTopo(t)
	if _, err := Compute(topo, nil); err == nil {
		t.Fatal("no announcements accepted")
	}
	if _, err := Compute(topo, []Announcement{{Origin: -1}}); err == nil {
		t.Fatal("bad origin accepted")
	}
	if _, err := Compute(topo, []Announcement{{Origin: 0}, {Origin: 0}}); err == nil {
		t.Fatal("duplicate origin accepted")
	}
}

// relOf returns the relationship from a to b, if any link exists.
func relOf(topo *topology.Topo, a, b int) (topology.RelView, bool) {
	for _, nb := range topo.Neighbors(a) {
		if nb.Other == b {
			return nb.View, true
		}
	}
	return 0, false
}

func TestGeneratedTopologyRoutesAreValleyFreeAndLoopFree(t *testing.T) {
	topo, err := topology.Generate(topology.GenConfig{Seed: 42, EyeballsPerRegion: 8})
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewOracle(NewReference(topo))
	checked := 0
	for _, p := range topo.Prefixes {
		if p.ID%7 != 0 { // sample for speed
			continue
		}
		rib, err := oracle.ToPrefix(p)
		if err != nil {
			t.Fatal(err)
		}
		for as := 0; as < topo.NumASes(); as++ {
			r := rib.Best(as)
			if !r.Valid {
				continue
			}
			checked++
			seen := map[int]bool{}
			for _, hop := range r.Path {
				if seen[hop] {
					t.Fatalf("loop in path %v", r.Path)
				}
				seen[hop] = true
			}
			// Valley-free along traffic direction (self -> origin):
			// after a peer hop or a down hop (provider->customer), no
			// further up or peer hops may occur.
			descended := false
			for i := 0; i+1 < len(r.Path); i++ {
				view, ok := relOf(topo, r.Path[i], r.Path[i+1])
				if !ok {
					t.Fatalf("non-adjacent hop %d-%d in path", r.Path[i], r.Path[i+1])
				}
				switch view {
				case topology.ViewProvider: // going up
					if descended {
						t.Fatalf("valley in path %v", r.Path)
					}
				case topology.ViewPeer, topology.ViewCustomer:
					descended = true
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no routes checked")
	}
}

func TestGeneratedTopologyFullReachability(t *testing.T) {
	topo, err := topology.Generate(topology.GenConfig{Seed: 7, EyeballsPerRegion: 6})
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewOracle(NewReference(topo))
	// Every AS must reach every sampled prefix: the hierarchy guarantees
	// global transit.
	for i, p := range topo.Prefixes {
		if i%11 != 0 {
			continue
		}
		rib, err := oracle.ToPrefix(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := rib.ReachableCount(); got != topo.NumASes() {
			t.Fatalf("prefix %d reachable from %d of %d ASes", p.ID, got, topo.NumASes())
		}
	}
}

func TestOracleCaches(t *testing.T) {
	topo, _ := tinyTopo(t)
	o := NewOracle(NewReference(topo))
	r1, err := o.ToOrigin(0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := o.ToOrigin(0)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("oracle did not cache")
	}
}

func BenchmarkComputeGenerated(b *testing.B) {
	topo, err := topology.Generate(topology.GenConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	origin := topo.ByClass(topology.Eyeball)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(topo, []Announcement{{Origin: origin}}); err != nil {
			b.Fatal(err)
		}
	}
}
