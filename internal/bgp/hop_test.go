package bgp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"beatbgp/internal/geo"
	"beatbgp/internal/topology"
)

// routeOffers is OffersTo computed from materialized routes, the way
// the RIB answered it before it kept a hop table: the oracle the hop
// table's rebuilt offers are checked against.
func routeOffers(t *topology.Topo, best []Route, down map[int]bool, supp map[int]map[int]bool, asID int) []Offer {
	var out []Offer
	for _, nb := range t.Neighbors(asID) {
		if down[nb.Link] || supp[nb.Other][nb.Link] {
			continue
		}
		nr := best[nb.Other]
		if !nr.Valid || loop(nr.Path, asID) {
			continue
		}
		if nb.View != topology.ViewProvider && nr.Src > SrcCustomer {
			continue
		}
		path := append([]int{asID}, nr.Path...)
		links := append([]int{nb.Link}, nr.Links...)
		out = append(out, Offer{Neighbor: nb.Other, Link: nb.Link, View: nb.View,
			Route: Route{Valid: true, Src: srcFor(nb.View), Link: nb.Link, NextHop: nb.Other, Path: path, Links: links}})
	}
	return out
}

// routeBestFrom is BestFrom over materialized offers: every offer
// built, then ranked.
func routeBestFrom(t *topology.Topo, best []Route, down map[int]bool, supp map[int]map[int]bool, asID, srcCity int) Route {
	if best[asID].Valid && best[asID].Src == SrcOrigin {
		return best[asID]
	}
	srcLoc := t.Catalog.City(srcCity).Loc
	var chosen Route
	chosenDist := math.Inf(1)
	for _, off := range routeOffers(t, best, down, supp, asID) {
		cand := off.Route
		cd := math.Inf(1)
		for _, c := range t.Links[cand.Link].Cities {
			cd = math.Min(cd, geo.DistanceKm(srcLoc, t.Catalog.City(c).Loc))
		}
		switch {
		case !chosen.Valid:
		case cand.Src != chosen.Src:
			if cand.Src > chosen.Src {
				continue
			}
		case len(cand.Path) != len(chosen.Path):
			if len(cand.Path) > len(chosen.Path) {
				continue
			}
		case cd != chosenDist:
			if cd > chosenDist {
				continue
			}
		default:
			if t.ASes[cand.NextHop].ASN >= t.ASes[chosen.NextHop].ASN {
				continue
			}
		}
		chosen, chosenDist = cand, cd
	}
	if !chosen.Valid {
		return best[asID]
	}
	return chosen
}

// hopCase is one announcement set over a generated topology.
type hopCase struct {
	topo *topology.Topo
	anns []Announcement
	down map[int]bool
}

// hopCases returns generated topologies with announcement sets that
// cover single origins, anycast with prepending and selective
// announcement, and failed links.
func hopCases(t *testing.T) []hopCase {
	t.Helper()
	var cases []hopCase
	for _, seed := range []uint64{42, 7} {
		topo, err := topology.Generate(topology.GenConfig{Seed: seed, EyeballsPerRegion: 4})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		n, nl := topo.NumASes(), len(topo.Links)
		for k := 0; k < 6; k++ {
			o := rng.Intn(n)
			c := hopCase{topo: topo, anns: []Announcement{{Origin: o}}}
			if k%2 == 1 {
				c.down = map[int]bool{rng.Intn(nl): true, rng.Intn(nl): true, rng.Intn(nl): true}
			}
			if k%3 == 2 {
				o2 := (o + 1 + rng.Intn(n-1)) % n
				sup := map[int]bool{}
				for _, nb := range topo.Neighbors(o2)[:1] {
					sup[nb.Link] = true
				}
				c.anns = append(c.anns, Announcement{Origin: o2, Prepend: 2, SuppressLinks: sup})
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// TestHopTableRebuildsConvergedRoutes: a RIB packed from the reference's
// converged routes answers Best, OffersTo and BestFrom exactly as the
// routes themselves do, nil and empty slices included.
func TestHopTableRebuildsConvergedRoutes(t *testing.T) {
	for i, c := range hopCases(t) {
		best, supp, err := converge(c.topo, c.anns, c.down)
		if err != nil {
			t.Fatal(err)
		}
		hops, err := pack(best)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		rib := NewRIB(c.topo, hops, c.down, supp)
		for as := range best {
			if got := rib.Best(as); !reflect.DeepEqual(got, best[as]) {
				t.Fatalf("case %d AS %d: Best %+v, converged %+v", i, as, got, best[as])
			}
			if got, want := rib.OffersTo(as), routeOffers(c.topo, best, c.down, supp, as); !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d AS %d: offers %+v, want %+v", i, as, got, want)
			}
			for _, city := range c.topo.ASes[as].Cities {
				if got, want := rib.BestFrom(as, city), routeBestFrom(c.topo, best, c.down, supp, as, city); !reflect.DeepEqual(got, want) {
					t.Fatalf("case %d AS %d city %d: BestFrom %+v, want %+v", i, as, city, got, want)
				}
			}
		}
	}
}

// TestPackRejectsBrokenSuffix: a converged route that does not extend
// its next hop's route is an error, never repacked into a different
// route.
func TestPackRejectsBrokenSuffix(t *testing.T) {
	c := hopCases(t)[0]
	best, _, err := converge(c.topo, c.anns, c.down)
	if err != nil {
		t.Fatal(err)
	}
	clone := func(r Route) Route {
		r.Path = append([]int(nil), r.Path...)
		if r.Links != nil {
			r.Links = append([]int(nil), r.Links...)
		}
		return r
	}
	breaks := map[string]func(r *Route){
		"origin-last":  func(r *Route) { r.Path[len(r.Path)-1] = (r.Path[len(r.Path)-1] + 1) % len(best) },
		"self-first":   func(r *Route) { r.Path[0] = r.NextHop },
		"extra-hop":    func(r *Route) { r.Path = append(r.Path, r.Path[len(r.Path)-1]) },
		"first-link":   func(r *Route) { r.Links[0]++ },
		"learned-link": func(r *Route) { r.Link++ },
		"last-link":    func(r *Route) { r.Links[len(r.Links)-1]++ },
		"short-links":  func(r *Route) { r.Links = r.Links[:len(r.Links)-1] },
		"next-hop":     func(r *Route) { r.NextHop = r.Path[len(r.Path)-1] },
	}
	checked := 0
	for v, r := range best {
		if !r.Valid || r.Src == SrcOrigin || len(r.Path) < 4 {
			continue
		}
		for name, brk := range breaks {
			broken := append([]Route(nil), best...)
			b := clone(r)
			brk(&b)
			broken[v] = b
			if _, err := pack(broken); err == nil {
				t.Fatalf("AS %d (%s): broken route %+v packed without error", v, name, b)
			}
		}
		if checked++; checked == 20 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no multi-hop routes to break")
	}
	o := c.anns[0].Origin
	broken := append([]Route(nil), best...)
	b := clone(best[o])
	b.Links = []int{}
	broken[o] = b
	if _, err := pack(broken); err == nil {
		t.Fatal("origin route with empty, non-nil links packed without error")
	}
}

// TestBestFromAllocs: BestFrom ranks its neighbours' offers on the hop
// table and builds only the winner, so its allocations do not grow with
// the AS's degree.
func TestBestFromAllocs(t *testing.T) {
	topo, err := topology.Generate(topology.GenConfig{Seed: 42, EyeballsPerRegion: 6})
	if err != nil {
		t.Fatal(err)
	}
	origin := topo.ByClass(topology.Eyeball)[0]
	rib, err := Compute(topo, []Announcement{{Origin: origin}})
	if err != nil {
		t.Fatal(err)
	}
	hub, low := -1, -1
	for as := range topo.ASes {
		if as == origin || !rib.Best(as).Valid {
			continue
		}
		if d := len(topo.Neighbors(as)); hub < 0 || d > len(topo.Neighbors(hub)) {
			hub = as
		}
		if d := len(topo.Neighbors(as)); low < 0 || d < len(topo.Neighbors(low)) {
			low = as
		}
	}
	for _, as := range []int{hub, low} {
		city := topo.ASes[as].Cities[0]
		allocs := testing.AllocsPerRun(50, func() { rib.BestFrom(as, city) })
		if allocs > 3 {
			t.Fatalf("BestFrom on AS %d (degree %d) made %.0f allocations, want at most 3",
				as, len(topo.Neighbors(as)), allocs)
		}
		t.Logf("AS %d, degree %d: %.0f allocations", as, len(topo.Neighbors(as)), allocs)
	}
}
