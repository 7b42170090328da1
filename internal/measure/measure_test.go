package measure

import (
	"errors"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/netpath"
	"beatbgp/internal/netsim"
	"beatbgp/internal/topology"
)

func setup(t testing.TB) (*topology.Topo, *Platform, Target) {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: 6, EyeballsPerRegion: 6})
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(topo, netsim.Config{Seed: 6}, nil, nil, nil)
	pl := New(topo, sim, 6)
	// Target: the first prefix's origin city, reached via each VP's best
	// BGP route.
	p := topo.Prefixes[0]
	oracle := bgp.NewOracle(bgp.NewReference(topo))
	res := netpath.NewResolver(topo)
	tgt := Target{
		Name: "prefix0",
		Route: func(vp VantagePoint) (netpath.Route, error) {
			rib, err := oracle.ToPrefix(p)
			if err != nil {
				return netpath.Route{}, err
			}
			r := rib.Best(vp.AS)
			if !r.Valid {
				return netpath.Route{}, errors.New("unreachable")
			}
			return res.Resolve(r, vp.City, p.City)
		},
	}
	return topo, pl, tgt
}

func TestVantagePointEnumeration(t *testing.T) {
	topo, pl, _ := setup(t)
	vps := pl.VantagePoints()
	if len(vps) < 40 {
		t.Fatalf("only %d vantage points", len(vps))
	}
	for _, vp := range vps {
		if topo.ASes[vp.AS].Class != topology.Eyeball {
			t.Fatal("VP outside an eyeball AS")
		}
		if !topo.ASes[vp.AS].Net.Present(vp.City) {
			t.Fatal("VP city outside its AS")
		}
		if vp.Prefix.ID < 1_000_000 {
			t.Fatal("VP prefix collides with client prefix IDs")
		}
	}
}

func TestRotationDeterministicAndChanging(t *testing.T) {
	_, pl, _ := setup(t)
	a := pl.Rotation(3, 10)
	b := pl.Rotation(3, 10)
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("rotation sizes %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("same-day rotation differs")
		}
	}
	c := pl.Rotation(4, 10)
	same := 0
	for i := range a {
		if a[i].ID == c[i].ID {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("rotation never rotates")
	}
}

func TestRotationCapped(t *testing.T) {
	_, pl, _ := setup(t)
	all := pl.VantagePoints()
	got := pl.Rotation(0, len(all)+100)
	if len(got) != len(all) {
		t.Fatalf("rotation returned %d of %d", len(got), len(all))
	}
}

func TestPingChargesCreditsAndMeasures(t *testing.T) {
	_, pl, tgt := setup(t)
	vp := pl.VantagePoints()[0]
	before := pl.CreditsUsed()
	rtt, err := pl.Ping(vp, tgt, 100)
	if err != nil {
		// Unreachable VP; try a few others.
		for _, v := range pl.VantagePoints()[1:10] {
			if rtt, err = pl.Ping(v, tgt, 100); err == nil {
				vp = v
				break
			}
		}
	}
	if err != nil {
		t.Fatalf("no VP can ping: %v", err)
	}
	if rtt <= 0 {
		t.Fatalf("rtt = %v", rtt)
	}
	if pl.CreditsUsed() <= before {
		t.Fatal("credits not charged")
	}
}

func TestPingExtraRTT(t *testing.T) {
	_, pl, tgt := setup(t)
	var vp VantagePoint
	found := false
	for _, v := range pl.VantagePoints()[:20] {
		if _, err := tgt.Route(v); err == nil {
			vp, found = v, true
			break
		}
	}
	if !found {
		t.Skip("no reachable VP in sample")
	}
	plain, err := pl.Ping(vp, tgt, 50)
	if err != nil {
		t.Fatal(err)
	}
	tgt2 := tgt
	tgt2.ExtraRTTMs = func(VantagePoint) float64 { return 100 }
	boosted, err := pl.Ping(vp, tgt2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if boosted < plain+90 {
		t.Fatalf("extra RTT not applied: %v vs %v", boosted, plain)
	}
}

func TestTraceroute(t *testing.T) {
	topo, pl, tgt := setup(t)
	known, total := 0, 0
	for _, vp := range pl.VantagePoints() {
		res, err := pl.Traceroute(vp, tgt)
		if err != nil {
			continue
		}
		total++
		if res.IngressKnown {
			known++
		}
		if res.IngressCity != res.Route.Hops[len(res.Route.Hops)-1].Ingress {
			t.Fatal("ingress city mismatch")
		}
		if res.IngressDistKm < 0 {
			t.Fatal("negative ingress distance")
		}
	}
	if total < 30 {
		t.Fatalf("only %d traceroutes succeeded", total)
	}
	frac := float64(known) / float64(total)
	if frac < 0.55 || frac > 0.90 {
		t.Fatalf("ingress detection rate %v, want ~0.72", frac)
	}
	_ = topo
}

func TestPingErrorPropagates(t *testing.T) {
	_, pl, _ := setup(t)
	bad := Target{Name: "bad", Route: func(VantagePoint) (netpath.Route, error) {
		return netpath.Route{}, errors.New("nope")
	}}
	if _, err := pl.Ping(pl.VantagePoints()[0], bad, 0); err == nil {
		t.Fatal("route error swallowed")
	}
}
