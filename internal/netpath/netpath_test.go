package netpath

import (
	"math"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/cable"
	"beatbgp/internal/geo"
	"beatbgp/internal/topology"
)

// twoASTopo wires two ASes that both span London and NewYork and
// interconnect in both cities. X has a fast backbone (stretch 1.0), Y a
// slow one (stretch 1.3), so the exit-policy choice is observable in the
// carried kilometers.
func twoASTopo(t *testing.T, xExit, yExit topology.ExitPolicy) (*topology.Topo, int, int, int, int, int) {
	t.Helper()
	catalog := geo.World()
	graph, err := cable.WorldGraph(catalog)
	if err != nil {
		t.Fatal(err)
	}
	topo := &topology.Topo{Catalog: catalog, Graph: graph}
	lon, _ := catalog.ByName("London")
	ny, _ := catalog.ByName("NewYork")
	x, err := topo.AddAS(1, "X", topology.Transit, geo.Europe, []int{lon.ID, ny.ID}, 1.0, xExit)
	if err != nil {
		t.Fatal(err)
	}
	y, err := topo.AddAS(2, "Y", topology.Transit, geo.NorthAmerica, []int{lon.ID, ny.ID}, 1.3, yExit)
	if err != nil {
		t.Fatal(err)
	}
	link, err := topo.Connect(x.ID, y.ID, topology.P2P, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return topo, x.ID, y.ID, link.ID, lon.ID, ny.ID
}

func mkRoute(path []int, links []int) bgp.Route {
	return bgp.Route{Valid: true, Src: bgp.SrcPeer, Link: links[0], NextHop: path[1], Path: path, Links: links}
}

func TestEarlyExitHandsOffAtIngressCity(t *testing.T) {
	topo, x, y, link, lon, ny := twoASTopo(t, topology.EarlyExit, topology.EarlyExit)
	res := NewResolver(topo)
	r, err := res.Resolve(mkRoute([]int{x, y}, []int{link}), lon, ny)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hops) != 2 {
		t.Fatalf("hops = %d", len(r.Hops))
	}
	if r.Hops[0].Egress != lon {
		t.Fatalf("early exit should hand off in London, got city %d", r.Hops[0].Egress)
	}
	if r.Hops[0].Km != 0 {
		t.Fatalf("X should carry nothing, carried %.0f km", r.Hops[0].Km)
	}
	// Y carries the ocean crossing with its 1.3 stretch.
	if r.Hops[1].Km <= 5570*1.15 {
		t.Fatalf("Y carried %.0f km, want > direct cable distance", r.Hops[1].Km)
	}
}

func TestLateExitCarriesOnOwnBackbone(t *testing.T) {
	topo, x, y, link, lon, ny := twoASTopo(t, topology.LateExit, topology.EarlyExit)
	res := NewResolver(topo)
	r, err := res.Resolve(mkRoute([]int{x, y}, []int{link}), lon, ny)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hops[0].Egress != ny {
		t.Fatalf("late exit should hand off in NewYork, got city %d", r.Hops[0].Egress)
	}
	if r.Hops[1].Km != 0 {
		t.Fatalf("Y should carry nothing, carried %.0f km", r.Hops[1].Km)
	}
	// Late exit over the fast backbone beats early exit onto the slow one.
	topoE, xe, ye, linkE, lonE, nyE := twoASTopo(t, topology.EarlyExit, topology.EarlyExit)
	resE := NewResolver(topoE)
	rE, err := resE.Resolve(mkRoute([]int{xe, ye}, []int{linkE}), lonE, nyE)
	if err != nil {
		t.Fatal(err)
	}
	if r.Km >= rE.Km {
		t.Fatalf("late exit %.0f km should beat early exit %.0f km here", r.Km, rE.Km)
	}
}

func TestPropRTTIncludesBoundaries(t *testing.T) {
	topo, x, y, link, lon, ny := twoASTopo(t, topology.EarlyExit, topology.EarlyExit)
	res := NewResolver(topo)
	r, err := res.Resolve(mkRoute([]int{x, y}, []int{link}), lon, ny)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Km*geo.FiberRTTMsPerKm + PerBoundaryRTTMs
	if math.Abs(r.PropRTTMs()-want) > 1e-9 {
		t.Fatalf("PropRTT = %v, want %v", r.PropRTTMs(), want)
	}
}

func TestResolveEntryStopsAtIngress(t *testing.T) {
	topo, x, y, link, lon, _ := twoASTopo(t, topology.EarlyExit, topology.EarlyExit)
	res := NewResolver(topo)
	r, err := res.ResolveEntry(mkRoute([]int{x, y}, []int{link}), lon)
	if err != nil {
		t.Fatal(err)
	}
	// X early-exits in London, so traffic enters Y in London.
	if r.DstCity != lon {
		t.Fatalf("entry city = %d, want London", r.DstCity)
	}
	if r.Km != 0 {
		t.Fatalf("no distance should be carried, got %.0f", r.Km)
	}
}

func TestResolveCollapsesPrepending(t *testing.T) {
	topo, x, y, link, lon, ny := twoASTopo(t, topology.EarlyExit, topology.EarlyExit)
	res := NewResolver(topo)
	// Path with the origin prepended twice: [x, y, y, y], one link.
	route := bgp.Route{Valid: true, Src: bgp.SrcPeer, Link: link, NextHop: y,
		Path: []int{x, y, y, y}, Links: []int{link}}
	r, err := res.Resolve(route, lon, ny)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hops) != 2 {
		t.Fatalf("prepending not collapsed: %d hops", len(r.Hops))
	}
}

func TestResolveErrors(t *testing.T) {
	topo, x, y, link, lon, ny := twoASTopo(t, topology.EarlyExit, topology.EarlyExit)
	res := NewResolver(topo)
	if _, err := res.Resolve(bgp.Route{}, lon, ny); err == nil {
		t.Fatal("invalid route accepted")
	}
	if _, err := res.Resolve(mkRoute([]int{x, y}, []int{link}), lon, -1); err == nil {
		t.Fatal("missing destination accepted")
	}
	tokyo, _ := topo.Catalog.ByName("Tokyo")
	if _, err := res.Resolve(mkRoute([]int{x, y}, []int{link}), tokyo.ID, ny); err == nil {
		t.Fatal("source outside footprint accepted")
	}
	// Wrong link count.
	bad := bgp.Route{Valid: true, Path: []int{x, y}, Links: nil}
	if _, err := res.Resolve(bad, lon, ny); err == nil {
		t.Fatal("mismatched links accepted")
	}
}

func TestStretch(t *testing.T) {
	cat := geo.World()
	lon, _ := cat.ByName("London")
	ny, _ := cat.ByName("NewYork")
	r := Route{SrcCity: lon.ID, DstCity: ny.ID, Km: 2 * geo.DistanceKm(lon.Loc, ny.Loc)}
	if s := r.Stretch(cat); math.Abs(s-2) > 1e-9 {
		t.Fatalf("stretch = %v, want 2", s)
	}
	same := Route{SrcCity: lon.ID, DstCity: lon.ID, Km: 0}
	if s := same.Stretch(cat); s != 1 {
		t.Fatalf("zero-length stretch = %v, want 1", s)
	}
	loop := Route{SrcCity: lon.ID, DstCity: lon.ID, Km: 100}
	if s := loop.Stretch(cat); !math.IsInf(s, 1) {
		t.Fatalf("co-located stretch = %v, want +Inf", s)
	}
}

func TestGeneratedTopologyPathsResolve(t *testing.T) {
	topo, err := topology.Generate(topology.GenConfig{Seed: 3, EyeballsPerRegion: 6})
	if err != nil {
		t.Fatal(err)
	}
	oracle := bgp.NewOracle(bgp.NewReference(topo))
	res := NewResolver(topo)
	resolved := 0
	for i, p := range topo.Prefixes {
		if i%9 != 0 {
			continue
		}
		rib, err := oracle.ToPrefix(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, asID := range topo.ByClass(topology.Eyeball) {
			if asID == p.Origin || asID%5 != 0 {
				continue
			}
			r := rib.Best(asID)
			if !r.Valid {
				continue
			}
			src := topo.ASes[asID].Cities[0]
			phys, err := res.Resolve(r, src, p.City)
			if err != nil {
				t.Fatalf("resolve %s -> prefix %d: %v", topo.ASes[asID].Name, p.ID, err)
			}
			resolved++
			// Sanity: carried distance at least the geodesic between the
			// endpoints is NOT guaranteed hop-by-hop, but total must be
			// >= 0 and RTT positive for distinct cities.
			if phys.Km < 0 {
				t.Fatalf("negative distance")
			}
			if src != p.City && phys.PropRTTMs() <= 0 {
				t.Fatalf("non-positive RTT for distinct endpoints")
			}
			// Hops must chain: egress of hop i == ingress of hop i+1.
			for h := 0; h+1 < len(phys.Hops); h++ {
				if phys.Hops[h].Egress != phys.Hops[h+1].Ingress {
					t.Fatalf("hop chain broken at %d", h)
				}
			}
			if phys.Hops[0].Ingress != src || phys.Hops[len(phys.Hops)-1].Egress != p.City {
				t.Fatalf("endpoints wrong")
			}
		}
	}
	if resolved < 50 {
		t.Fatalf("only %d paths resolved", resolved)
	}
}

func BenchmarkResolve(b *testing.B) {
	topo, err := topology.Generate(topology.GenConfig{Seed: 3, EyeballsPerRegion: 6})
	if err != nil {
		b.Fatal(err)
	}
	oracle := bgp.NewOracle(bgp.NewReference(topo))
	res := NewResolver(topo)
	p := topo.Prefixes[0]
	rib, err := oracle.ToPrefix(p)
	if err != nil {
		b.Fatal(err)
	}
	var src int
	var route bgp.Route
	for _, asID := range topo.ByClass(topology.Eyeball) {
		if asID != p.Origin && rib.Best(asID).Valid {
			src = topo.ASes[asID].Cities[0]
			route = rib.Best(asID)
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Resolve(route, src, p.City); err != nil {
			b.Fatal(err)
		}
	}
}
