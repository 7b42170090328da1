package bgp

import (
	"testing"

	"beatbgp/internal/topology"
)

func TestBestFromOriginKeepsOwnRoute(t *testing.T) {
	topo, ids := tinyTopo(t)
	rib, err := Compute(topo, []Announcement{{Origin: ids["EYE1"]}})
	if err != nil {
		t.Fatal(err)
	}
	city := topo.ASes[ids["EYE1"]].Cities[0]
	r := rib.BestFrom(ids["EYE1"], city)
	if !r.Valid || r.Src != SrcOrigin {
		t.Fatalf("origin lost its own route: %+v", r)
	}
}

func TestBestFromRespectsLocalPref(t *testing.T) {
	topo, ids := tinyTopo(t)
	// EYE2 hears EYE3's prefix via the direct peering (peer) and via TRa
	// (provider). Per-ingress selection must still prefer the peering
	// from every city.
	rib, err := Compute(topo, []Announcement{{Origin: ids["EYE3"]}})
	if err != nil {
		t.Fatal(err)
	}
	for _, city := range topo.ASes[ids["EYE2"]].Cities {
		r := rib.BestFrom(ids["EYE2"], city)
		if !r.Valid || r.Src != SrcPeer {
			t.Fatalf("city %d: src = %v, want peer", city, r.Src)
		}
	}
}

func TestBestFromFallsBackWhenNoOffers(t *testing.T) {
	topo, ids := tinyTopo(t)
	// Suppress EYE2's only uplink used for the announcement: TRa hears
	// nothing, but BestFrom on an AS with no offers must return its RIB
	// best (invalid here) rather than panic.
	var link int = -1
	for _, nb := range topo.Neighbors(ids["EYE2"]) {
		if nb.Other == ids["TRa"] {
			link = nb.Link
		}
	}
	rib, err := Compute(topo, []Announcement{{
		Origin:        ids["EYE2"],
		SuppressLinks: map[int]bool{link: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	city := topo.ASes[ids["TRa"]].Cities[0]
	if r := rib.BestFrom(ids["TRa"], city); r.Valid {
		t.Fatalf("unreachable AS produced a route: %+v", r)
	}
}

func TestBestFromMatchesBestOnGeneratedTopology(t *testing.T) {
	// Per-ingress selection from the AS's home city should usually agree
	// with the converged best route (same preference logic, same anchor).
	topo, err := topology.Generate(topology.GenConfig{Seed: 33, EyeballsPerRegion: 6})
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewOracle(NewReference(topo))
	agree, total := 0, 0
	for i, p := range topo.Prefixes {
		if i%9 != 0 {
			continue
		}
		rib, err := oracle.ToPrefix(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, as := range topo.ByClass(topology.Eyeball) {
			if as == p.Origin || as%4 != 0 {
				continue
			}
			best := rib.Best(as)
			if !best.Valid {
				continue
			}
			from := rib.BestFrom(as, homeCity(topo, as))
			total++
			if from.Valid && from.Src == best.Src && from.PathLen() == best.PathLen() {
				agree++
			}
		}
	}
	if total < 50 {
		t.Fatalf("only %d comparisons", total)
	}
	if frac := float64(agree) / float64(total); frac < 0.9 {
		t.Fatalf("home-city BestFrom diverges from Best too often: %.2f agreement", frac)
	}
}
