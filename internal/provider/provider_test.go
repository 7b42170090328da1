package provider

import (
	"math"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/geo"
	"beatbgp/internal/netpath"
	"beatbgp/internal/topology"
)

func build(t testing.TB, seed uint64) (*topology.Topo, *Provider) {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: seed, EyeballsPerRegion: 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(topo, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return topo, p
}

func TestBuildShape(t *testing.T) {
	topo, p := build(t, 1)
	if len(p.PoPs) < 20 {
		t.Fatalf("only %d PoPs, want ~24", len(p.PoPs))
	}
	if p.AS.Class != topology.Content || p.AS.Exit != topology.LateExit {
		t.Fatal("provider AS misconfigured")
	}
	if !p.AS.Net.Present(p.DC) {
		t.Fatal("DC not on the WAN")
	}
	if len(p.PeerLinks(ClassPNI)) == 0 {
		t.Fatal("no PNI peers")
	}
	if len(p.PeerLinks(ClassPublicPeer)) == 0 {
		t.Fatal("no public peers")
	}
	if len(p.PeerLinks(ClassTransit)) < 2 {
		t.Fatal("too few transit links")
	}
	// The provider must be in the topology.
	if topo.ASes[p.AS.ID] != p.AS {
		t.Fatal("provider AS not registered")
	}
}

func TestBuildDeterministic(t *testing.T) {
	_, p1 := build(t, 5)
	_, p2 := build(t, 5)
	if len(p1.PoPs) != len(p2.PoPs) || p1.DC != p2.DC {
		t.Fatal("PoPs differ across identical builds")
	}
	for c := range p1.classes {
		if p2.classes[c] != p1.classes[c] {
			t.Fatal("link classes differ")
		}
	}
}

func TestWANHasNoEuropeAsiaCorridor(t *testing.T) {
	_, p := build(t, 3)
	cat := p.Topo.Catalog
	// Every WAN route from an Indian PoP (if present, else any Asian PoP)
	// to a European PoP must transit North America, because the WAN has
	// no Europe<->Asia corridor.
	var asian, european []int
	for _, c := range p.PoPs {
		switch cat.City(c).Region {
		case geo.Asia:
			asian = append(asian, c)
		case geo.Europe:
			european = append(european, c)
		}
	}
	if len(asian) == 0 || len(european) == 0 {
		t.Skip("no Asia/Europe PoPs")
	}
	path, ok := p.AS.Net.Path(asian[0], european[0])
	if !ok {
		t.Fatal("WAN cannot route Asia->Europe")
	}
	viaNA := false
	for _, c := range path.Cities {
		if cat.City(c).Region == geo.NorthAmerica {
			viaNA = true
		}
	}
	if !viaNA {
		t.Fatalf("WAN Asia->Europe did not cross North America: %v", path.Cities)
	}
}

func TestServingPoPIsNearest(t *testing.T) {
	_, p := build(t, 7)
	cat := p.Topo.Catalog
	for _, name := range []string{"Manchester", "Cordoba", "Busan", "Kathmandu"} {
		c, ok := cat.ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		pop := p.ServingPoP(c.ID)
		d := geo.DistanceKm(c.Loc, cat.City(pop).Loc)
		for _, other := range p.PoPs {
			if od := geo.DistanceKm(c.Loc, cat.City(other).Loc); od < d-1e-9 {
				t.Fatalf("%s served by %s (%.0f km) but %s is closer (%.0f km)",
					name, cat.City(pop).Name, d, cat.City(other).Name, od)
			}
		}
	}
}

func TestEgressOptionsPolicyOrder(t *testing.T) {
	topo, p := build(t, 9)
	oracle := bgp.NewOracle(bgp.NewReference(topo))
	checked := 0
	for _, px := range topo.Prefixes {
		if px.ID%13 != 0 {
			continue
		}
		rib, err := oracle.ToPrefix(px)
		if err != nil {
			t.Fatal(err)
		}
		pop := p.ServingPoP(px.City)
		opts := p.EgressOptions(rib, pop)
		for i := 1; i < len(opts); i++ {
			if opts[i].Class < opts[i-1].Class {
				t.Fatalf("options out of class order at %d", i)
			}
			if opts[i].Class == opts[i-1].Class && opts[i].Route.PathLen() < opts[i-1].Route.PathLen() {
				t.Fatalf("options out of path-length order at %d", i)
			}
		}
		seen := map[int]bool{}
		for _, o := range opts {
			if seen[o.Neighbor] {
				t.Fatal("duplicate neighbor in options")
			}
			seen[o.Neighbor] = true
			if o.Route.Path[0] != p.AS.ID {
				t.Fatal("option path must start at the provider")
			}
			if o.Route.Origin() != px.Origin {
				t.Fatal("option does not reach the prefix origin")
			}
		}
		if len(opts) > 0 {
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("egress options found for only %d sampled prefixes", checked)
	}
}

func TestMostPrefixesHaveSeveralRoutes(t *testing.T) {
	// §2.3.1: "For most clients, the PoP serving the client has at least
	// three routes to the client's prefix."
	topo, p := build(t, 11)
	oracle := bgp.NewOracle(bgp.NewReference(topo))
	withThree, total := 0, 0
	for _, px := range topo.Prefixes {
		if px.ID%5 != 0 {
			continue
		}
		rib, err := oracle.ToPrefix(px)
		if err != nil {
			t.Fatal(err)
		}
		opts := p.EgressOptions(rib, p.ServingPoP(px.City))
		total++
		if len(opts) >= 3 {
			withThree++
		}
	}
	if frac := float64(withThree) / float64(total); frac < 0.6 {
		t.Fatalf("only %.0f%% of prefixes have >=3 egress routes", frac*100)
	}
}

func TestStandardAnnouncementRestrictsIngress(t *testing.T) {
	topo, p := build(t, 13)
	cat := topo.Catalog
	res := netpath.NewResolver(topo)

	premRIB, err := bgp.Compute(topo, []bgp.Announcement{p.PremiumAnnouncement()})
	if err != nil {
		t.Fatal(err)
	}
	stdRIB, err := bgp.Compute(topo, []bgp.Announcement{p.StandardAnnouncement()})
	if err != nil {
		t.Fatal(err)
	}
	dcLoc := cat.City(p.DC).Loc
	tested := 0
	var premNear, stdNear int
	for _, asID := range topo.ByClass(topology.Eyeball) {
		if asID%3 != 0 {
			continue
		}
		vpCity := topo.ASes[asID].Cities[0]
		pr, sr := premRIB.Best(asID), stdRIB.Best(asID)
		if !pr.Valid || !sr.Valid {
			continue
		}
		_, pEntry, _, err := p.EntryAndWAN(res, pr, vpCity)
		if err != nil {
			continue
		}
		_, sEntry, _, err := p.EntryAndWAN(res, sr, vpCity)
		if err != nil {
			continue
		}
		tested++
		vpLoc := cat.City(vpCity).Loc
		if geo.DistanceKm(vpLoc, cat.City(pEntry).Loc) < 400 {
			premNear++
		}
		if geo.DistanceKm(vpLoc, cat.City(sEntry).Loc) < 400 {
			stdNear++
		}
		// Standard ingress must be near the DC.
		if geo.DistanceKm(dcLoc, cat.City(sEntry).Loc) > 2000 {
			t.Fatalf("standard tier entered at %s, far from DC", cat.City(sEntry).Name)
		}
	}
	if tested < 20 {
		t.Fatalf("only %d vantage points tested", tested)
	}
	if premNear <= stdNear {
		t.Fatalf("premium near-ingress count %d should exceed standard %d", premNear, stdNear)
	}
}

func TestEntryAndWANErrors(t *testing.T) {
	topo, p := build(t, 15)
	res := netpath.NewResolver(topo)
	// A route that does not terminate at the provider must be rejected.
	other := topo.Prefixes[0]
	rib, err := bgp.NewOracle(bgp.NewReference(topo)).ToPrefix(other)
	if err != nil {
		t.Fatal(err)
	}
	var r bgp.Route
	for _, asID := range topo.ByClass(topology.Eyeball) {
		if asID != other.Origin && rib.Best(asID).Valid {
			r = rib.Best(asID)
			break
		}
	}
	if _, _, _, err := p.EntryAndWAN(res, r, topo.ASes[r.Path[0]].Cities[0]); err == nil {
		t.Fatal("foreign route accepted")
	}
}

func TestPeeringReductionAblation(t *testing.T) {
	topo1, err := topology.Generate(topology.GenConfig{Seed: 21, EyeballsPerRegion: 10})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Build(topo1, Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	topo2, err := topology.Generate(topology.GenConfig{Seed: 21, EyeballsPerRegion: 10})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := Build(topo2, Config{Seed: 21, PeerKeepFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	f := len(full.PeerLinks(ClassPNI)) + len(full.PeerLinks(ClassPublicPeer))
	r := len(reduced.PeerLinks(ClassPNI)) + len(reduced.PeerLinks(ClassPublicPeer))
	if r >= f {
		t.Fatalf("peer reduction did not reduce peers: %d vs %d", r, f)
	}
}

func TestBuildBadDC(t *testing.T) {
	topo, err := topology.Generate(topology.GenConfig{Seed: 23, EyeballsPerRegion: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(topo, Config{DCCity: "Nowhere"}); err == nil {
		t.Fatal("unknown DC accepted")
	}
}

func TestRouteClassString(t *testing.T) {
	if ClassPNI.String() != "pni" || ClassTransit.String() != "transit" || ClassPublicPeer.String() != "public-peer" {
		t.Fatal("class strings wrong")
	}
}

func TestWANDistancesFinite(t *testing.T) {
	_, p := build(t, 17)
	for _, a := range p.PoPs {
		if d := p.AS.Net.DistKm(a, p.DC); math.IsInf(d, 1) {
			t.Fatalf("PoP %d cannot reach DC on WAN", a)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo, err := topology.Generate(topology.GenConfig{Seed: uint64(i + 1), EyeballsPerRegion: 10})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Build(topo, Config{Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
