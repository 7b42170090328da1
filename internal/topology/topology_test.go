package topology

import (
	"testing"

	"beatbgp/internal/geo"
)

func gen(t testing.TB, seed uint64) *Topo {
	t.Helper()
	topo, err := Generate(GenConfig{Seed: seed})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func TestGenerateBasicShape(t *testing.T) {
	topo := gen(t, 1)
	t1 := topo.ByClass(Tier1)
	tr := topo.ByClass(Transit)
	ey := topo.ByClass(Eyeball)
	if len(t1) != 8 {
		t.Fatalf("tier1 count = %d, want 8", len(t1))
	}
	if len(tr) < 20 {
		t.Fatalf("transit count = %d, want >= 20", len(tr))
	}
	if len(ey) != 7*20 {
		t.Fatalf("eyeball count = %d, want 140", len(ey))
	}
	if len(topo.Prefixes) < len(ey) {
		t.Fatalf("prefixes %d < eyeballs %d", len(topo.Prefixes), len(ey))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := gen(t, 7), gen(t, 7)
	if len(a.ASes) != len(b.ASes) || len(a.Links) != len(b.Links) || len(a.Prefixes) != len(b.Prefixes) {
		t.Fatalf("sizes differ: %d/%d/%d vs %d/%d/%d",
			len(a.ASes), len(a.Links), len(a.Prefixes),
			len(b.ASes), len(b.Links), len(b.Prefixes))
	}
	for i := range a.ASes {
		x, y := a.ASes[i], b.ASes[i]
		if x.Name != y.Name || len(x.Cities) != len(y.Cities) || x.LastMileMs != y.LastMileMs {
			t.Fatalf("AS %d differs: %s vs %s", i, x.Name, y.Name)
		}
		for j := range x.Cities {
			if x.Cities[j] != y.Cities[j] {
				t.Fatalf("AS %s footprint differs", x.Name)
			}
		}
	}
	for i := range a.Links {
		x, y := a.Links[i], b.Links[i]
		if x.A != y.A || x.B != y.B || x.Rel != y.Rel {
			t.Fatalf("link %d differs", i)
		}
	}
	for i := range a.Prefixes {
		x, y := a.Prefixes[i], b.Prefixes[i]
		if x.Origin != y.Origin || x.City != y.City || x.Weight != y.Weight {
			t.Fatalf("prefix %d differs", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := gen(t, 1), gen(t, 2)
	same := len(a.Links) == len(b.Links)
	if same {
		diff := false
		for i := range a.Links {
			if a.Links[i].A != b.Links[i].A || a.Links[i].B != b.Links[i].B {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Fatal("different seeds produced identical link structure")
	}
}

func TestTier1Clique(t *testing.T) {
	topo := gen(t, 3)
	t1 := topo.ByClass(Tier1)
	set := make(map[int]bool)
	for _, id := range t1 {
		set[id] = true
	}
	for _, id := range t1 {
		peers := 0
		for _, nb := range topo.Neighbors(id) {
			if nb.View == ViewPeer && set[nb.Other] {
				peers++
			}
		}
		if peers != len(t1)-1 {
			t.Fatalf("tier1 %d peers with %d of %d others", id, peers, len(t1)-1)
		}
	}
}

func TestHierarchyIsAcyclic(t *testing.T) {
	// Customer->provider edges must form a DAG (no AS is its own indirect
	// provider); the generator builds strictly tiered relationships.
	topo := gen(t, 5)
	state := make([]int, len(topo.ASes)) // 0 unvisited, 1 in-stack, 2 done
	var visit func(int) bool
	visit = func(as int) bool {
		if state[as] == 1 {
			return false
		}
		if state[as] == 2 {
			return true
		}
		state[as] = 1
		for _, nb := range topo.Neighbors(as) {
			if nb.View == ViewProvider { // edge customer -> provider
				if !visit(nb.Other) {
					return false
				}
			}
		}
		state[as] = 2
		return true
	}
	for id := range topo.ASes {
		if !visit(id) {
			t.Fatalf("customer-provider cycle through AS %d", id)
		}
	}
}

func TestEveryEyeballHasProvider(t *testing.T) {
	topo := gen(t, 9)
	for _, id := range topo.ByClass(Eyeball) {
		has := false
		for _, nb := range topo.Neighbors(id) {
			if nb.View == ViewProvider {
				has = true
				break
			}
		}
		if !has {
			t.Fatalf("eyeball %s has no provider", topo.ASes[id].Name)
		}
		if topo.ASes[id].LastMileMs <= 0 {
			t.Fatalf("eyeball %s has no last-mile latency", topo.ASes[id].Name)
		}
	}
}

func TestLinksShareCity(t *testing.T) {
	topo := gen(t, 11)
	for _, l := range topo.Links {
		if len(l.Cities) == 0 {
			t.Fatalf("link %d has no interconnection city", l.ID)
		}
		for _, c := range l.Cities {
			if !topo.ASes[l.A].Net.Present(c) || !topo.ASes[l.B].Net.Present(c) {
				t.Fatalf("link %d interconnects at %d outside a footprint", l.ID, c)
			}
		}
	}
}

func TestPrefixesAnchoredInFootprint(t *testing.T) {
	topo := gen(t, 13)
	for _, p := range topo.Prefixes {
		if !topo.ASes[p.Origin].Net.Present(p.City) {
			t.Fatalf("prefix %d anchored outside origin footprint", p.ID)
		}
		if p.Weight <= 0 {
			t.Fatalf("prefix %d non-positive weight", p.ID)
		}
	}
}

func TestNeighborsViewConsistency(t *testing.T) {
	topo := gen(t, 15)
	for _, l := range topo.Links {
		var viewA, viewB RelView
		for _, nb := range topo.Neighbors(l.A) {
			if nb.Link == l.ID {
				viewA = nb.View
			}
		}
		for _, nb := range topo.Neighbors(l.B) {
			if nb.Link == l.ID {
				viewB = nb.View
			}
		}
		switch l.Rel {
		case P2P:
			if viewA != ViewPeer || viewB != ViewPeer {
				t.Fatalf("p2p link %d views: %v %v", l.ID, viewA, viewB)
			}
		case C2P:
			if viewA != ViewProvider || viewB != ViewCustomer {
				t.Fatalf("c2p link %d views: %v %v", l.ID, viewA, viewB)
			}
		}
	}
}

func TestAddASValidation(t *testing.T) {
	topo := gen(t, 17)
	if _, err := topo.AddAS(9, "empty", Eyeball, geo.Europe, nil, 1.2, EarlyExit); err == nil {
		t.Fatal("empty footprint accepted")
	}
}

func TestConnectValidation(t *testing.T) {
	topo := gen(t, 19)
	if _, err := topo.Connect(0, 0, P2P, nil, false); err == nil {
		t.Fatal("self link accepted")
	}
	if _, err := topo.Connect(-1, 0, P2P, nil, false); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	// Explicit city outside footprint must be rejected.
	a := topo.ByClass(Eyeball)[0]
	b := topo.ByClass(Tier1)[0]
	bad := -1
	for c := 0; c < topo.Catalog.Len(); c++ {
		if !topo.ASes[a].Net.Present(c) {
			bad = c
			break
		}
	}
	if bad >= 0 {
		if _, err := topo.Connect(a, b, P2P, []int{bad}, false); err == nil {
			t.Fatal("interconnect city outside footprint accepted")
		}
	}
}

func TestAddPrefixValidation(t *testing.T) {
	topo := gen(t, 21)
	if _, err := topo.AddPrefix(-1, 0, 1); err == nil {
		t.Fatal("bad origin accepted")
	}
	ey := topo.ByClass(Eyeball)[0]
	outside := -1
	for c := 0; c < topo.Catalog.Len(); c++ {
		if !topo.ASes[ey].Net.Present(c) {
			outside = c
			break
		}
	}
	if outside >= 0 {
		if _, err := topo.AddPrefix(ey, outside, 1); err == nil {
			t.Fatal("prefix outside footprint accepted")
		}
	}
	if _, err := topo.AddPrefix(ey, topo.ASes[ey].Cities[0], 0); err == nil {
		t.Fatal("zero weight accepted")
	}
}

// TestLargeWorldPrefixIDs: a prefix is an ID, so world size has no
// address-pool ceiling. 200 eyeballs per region yields more prefixes than
// the 4,096 /20 blocks a 10.0.0.0/8 pool could hand out.
func TestLargeWorldPrefixIDs(t *testing.T) {
	topo, err := Generate(GenConfig{Seed: 42, EyeballsPerRegion: 200})
	if err != nil {
		t.Fatalf("Generate at 200 eyeballs per region: %v", err)
	}
	if n := len(topo.Prefixes); n <= 4096 {
		t.Fatalf("%d prefixes, want more than 4096", n)
	}
	for i, p := range topo.Prefixes {
		if p.ID != i {
			t.Fatalf("Prefixes[%d].ID = %d", i, p.ID)
		}
	}
}

func TestSharedCities(t *testing.T) {
	a := &AS{Cities: []int{1, 3, 5, 7}}
	b := &AS{Cities: []int{2, 3, 4, 7, 9}}
	got := SharedCities(a, b)
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("SharedCities = %v, want [3 7]", got)
	}
}

func TestClassAndRelStrings(t *testing.T) {
	if Tier1.String() != "tier1" || Content.String() != "content" {
		t.Fatal("class strings wrong")
	}
	if C2P.String() != "c2p" || P2P.String() != "p2p" {
		t.Fatal("rel strings wrong")
	}
	if ViewPeer.String() != "peer" || LateExit.String() != "late-exit" {
		t.Fatal("view/exit strings wrong")
	}
}

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(GenConfig{Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
