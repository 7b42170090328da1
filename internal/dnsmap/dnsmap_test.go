package dnsmap

import (
	"testing"

	"beatbgp/internal/topology"
)

func setup(t testing.TB, cfg Config) (*topology.Topo, *Mapping) {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: 4, EyeballsPerRegion: 10})
	if err != nil {
		t.Fatal(err)
	}
	return topo, Build(topo, cfg)
}

func TestEveryPrefixHasResolver(t *testing.T) {
	topo, m := setup(t, Config{Seed: 1})
	for _, p := range topo.Prefixes {
		r, ok := m.ResolverFor(p.ID)
		if !ok {
			t.Fatalf("prefix %d has no resolver", p.ID)
		}
		if r.City < 0 || r.City >= topo.Catalog.Len() {
			t.Fatalf("resolver city out of range")
		}
	}
}

func TestPublicResolverFraction(t *testing.T) {
	topo, m := setup(t, Config{Seed: 2, PublicResolverProb: 0.3})
	public := 0
	for _, p := range topo.Prefixes {
		r, _ := m.ResolverFor(p.ID)
		if r.Public {
			public++
		}
	}
	frac := float64(public) / float64(len(topo.Prefixes))
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("public fraction = %v, want ~0.3", frac)
	}
}

func TestISPResolverInOwnAS(t *testing.T) {
	topo, m := setup(t, Config{Seed: 3})
	for _, p := range topo.Prefixes {
		r, _ := m.ResolverFor(p.ID)
		if r.Public {
			if r.AS != -1 || !r.ECS {
				t.Fatal("public resolver must be AS-less and send ECS")
			}
			continue
		}
		if r.AS != p.Origin {
			t.Fatalf("ISP resolver for prefix %d hosted in AS %d, want %d", p.ID, r.AS, p.Origin)
		}
		if !topo.ASes[p.Origin].Net.Present(r.City) {
			t.Fatal("ISP resolver outside its AS footprint")
		}
	}
}

func TestECSRareAmongISPs(t *testing.T) {
	_, m := setup(t, Config{Seed: 4})
	ecs, isp := 0, 0
	for _, r := range m.Resolvers() {
		if r.Public {
			continue
		}
		isp++
		if r.ECS {
			ecs++
		}
	}
	if isp == 0 {
		t.Fatal("no ISP resolvers")
	}
	if frac := float64(ecs) / float64(isp); frac > 0.05 {
		t.Fatalf("ISP ECS adoption = %v, want near zero", frac)
	}
}

func TestAggregation(t *testing.T) {
	// Many prefixes must share a resolver — that is the whole point of
	// LDNS-granularity redirection being hard.
	topo, m := setup(t, Config{Seed: 5})
	behind := make(map[int]int)
	for _, p := range topo.Prefixes {
		if r, ok := m.ResolverFor(p.ID); ok {
			behind[r.ID]++
		}
	}
	maxBehind := 0
	for _, n := range behind {
		maxBehind = max(maxBehind, n)
	}
	if maxBehind < 2 {
		t.Fatal("no resolver aggregates multiple prefixes")
	}
}

func TestDeterministic(t *testing.T) {
	topo, err := topology.Generate(topology.GenConfig{Seed: 4, EyeballsPerRegion: 10})
	if err != nil {
		t.Fatal(err)
	}
	m1 := Build(topo, Config{Seed: 9})
	m2 := Build(topo, Config{Seed: 9})
	for _, p := range topo.Prefixes {
		a, _ := m1.ResolverFor(p.ID)
		b, _ := m2.ResolverFor(p.ID)
		if a != b {
			t.Fatalf("mapping differs for prefix %d", p.ID)
		}
	}
}

func TestMissingPrefix(t *testing.T) {
	_, m := setup(t, Config{Seed: 6})
	if _, ok := m.ResolverFor(999999); ok {
		t.Fatal("unknown prefix resolved")
	}
}
