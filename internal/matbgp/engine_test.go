package matbgp

import (
	"fmt"
	"reflect"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/cable"
	"beatbgp/internal/geo"
	"beatbgp/internal/topology"
)

func genTopo(t *testing.T, seed uint64, eyeballs int) *topology.Topo {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: seed, EyeballsPerRegion: eyeballs})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return topo
}

// requireSameRIB compares every observable of the two RIBs: per-AS best
// routes (paths and links included), neighbor offers, and per-ingress
// re-selection. This is the engine contract — bit identity, not
// approximate agreement.
func requireSameRIB(t *testing.T, topo *topology.Topo, want, got *bgp.RIB, label string) {
	t.Helper()
	for as := 0; as < topo.NumASes(); as++ {
		w, g := want.Best(as), got.Best(as)
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("%s: AS %d best route differs:\n reference %+v\n matbgp    %+v", label, as, w, g)
		}
		if ow, og := want.OffersTo(as), got.OffersTo(as); !reflect.DeepEqual(ow, og) {
			t.Fatalf("%s: AS %d offers differ:\n reference %+v\n matbgp    %+v", label, as, ow, og)
		}
		if len(topo.ASes[as].Cities) > 0 {
			city := topo.ASes[as].Cities[0]
			if fw, fg := want.BestFrom(as, city), got.BestFrom(as, city); !reflect.DeepEqual(fw, fg) {
				t.Fatalf("%s: AS %d BestFrom(%d) differs:\n reference %+v\n matbgp    %+v",
					label, as, city, fw, fg)
			}
		}
	}
}

// TestEngineMatchesReferenceAllOrigins runs the all-pairs workload — one
// plain announcement per AS — through both engines and requires bit
// identity. Stub origins exercise the class cache; transit and Tier-1
// origins exercise direct propagation.
func TestEngineMatchesReferenceAllOrigins(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		topo := genTopo(t, seed, 6)
		eng, err := NewEngine(topo)
		if err != nil {
			t.Fatalf("seed %d: NewEngine: %v", seed, err)
		}
		ref := bgp.NewReference(topo)
		stubs := 0
		for as := 0; as < topo.NumASes(); as++ {
			if int(eng.Graph().classOf[as]) >= 0 {
				stubs++
			}
			anns := []bgp.Announcement{{Origin: as}}
			want, err := ref.Compute(anns)
			if err != nil {
				t.Fatalf("seed %d origin %d: reference: %v", seed, as, err)
			}
			got, err := eng.Compute(anns)
			if err != nil {
				t.Fatalf("seed %d origin %d: matbgp: %v", seed, as, err)
			}
			requireSameRIB(t, topo, want, got, fmt.Sprintf("seed %d origin %d", seed, as))
		}
		if classes := len(eng.Graph().classes); classes == 0 || classes >= stubs {
			t.Fatalf("seed %d: compression ineffective: %d classes for %d stubs", seed, classes, stubs)
		}
	}
}

// TestEngineMatchesReferenceAnycast covers the batch engine's direct
// (uncached) path: multi-origin anycast with prepending, selective
// announcement, and failed links.
func TestEngineMatchesReferenceAnycast(t *testing.T) {
	topo := genTopo(t, 42, 6)
	eng, err := NewEngine(topo)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ref := bgp.NewReference(topo)
	n := topo.NumASes()
	rng := uint64(0xbeefcafe)
	next := func(mod int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(mod))
	}
	for trial := 0; trial < 60; trial++ {
		norigins := 1 + next(4)
		seen := map[int]bool{}
		var anns []bgp.Announcement
		for len(anns) < norigins {
			o := next(n)
			if seen[o] {
				continue
			}
			seen[o] = true
			a := bgp.Announcement{Origin: o, Prepend: next(3)}
			// Suppress a random subset of the origin's links now and then.
			if next(3) == 0 {
				nbs := topo.Neighbors(o)
				sup := map[int]bool{}
				for _, nb := range nbs {
					if next(2) == 0 {
						sup[nb.Link] = true
					}
				}
				if len(sup) > 0 && len(sup) < len(nbs) {
					a.SuppressLinks = sup
				}
			}
			anns = append(anns, a)
		}
		var down map[int]bool
		if next(2) == 0 {
			down = map[int]bool{}
			for k := 0; k < 1+next(5); k++ {
				down[next(len(topo.Links))] = true
			}
		}
		want, werr := ref.ComputeWithout(anns, down)
		got, gerr := eng.ComputeWithout(anns, down)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("trial %d: errors diverge: reference %v, matbgp %v", trial, werr, gerr)
		}
		if werr != nil {
			continue
		}
		requireSameRIB(t, topo, want, got, fmt.Sprintf("trial %d", trial))
	}
}

// TestEngineErrorsMatchReference: engine selection must be invisible,
// including in failure modes — messages are compared verbatim.
func TestEngineErrorsMatchReference(t *testing.T) {
	topo := genTopo(t, 7, 6)
	eng, err := NewEngine(topo)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ref := bgp.NewReference(topo)
	cases := [][]bgp.Announcement{
		nil,
		{{Origin: -1}},
		{{Origin: topo.NumASes()}},
		{{Origin: 3}, {Origin: 3}},
	}
	for i, anns := range cases {
		_, werr := ref.Compute(anns)
		_, gerr := eng.Compute(anns)
		if werr == nil || gerr == nil {
			t.Fatalf("case %d: expected errors, got reference %v, matbgp %v", i, werr, gerr)
		}
		if werr.Error() != gerr.Error() {
			t.Fatalf("case %d: error text differs: reference %q, matbgp %q", i, werr, gerr)
		}
	}
}

// handTopo builds a small topology from scratch on the real city catalog.
func handTopo(t *testing.T) (*topology.Topo, func(asn int, cities []string) int, func(a, b int, rel topology.Rel)) {
	t.Helper()
	catalog := geo.World()
	graph, err := cable.WorldGraph(catalog)
	if err != nil {
		t.Fatalf("world graph: %v", err)
	}
	topo := &topology.Topo{Catalog: catalog, Graph: graph}
	cityID := func(name string) int {
		c, ok := catalog.ByName(name)
		if !ok {
			t.Fatalf("city %q missing", name)
		}
		return c.ID
	}
	addAS := func(asn int, cities []string) int {
		ids := make([]int, len(cities))
		for i, c := range cities {
			ids[i] = cityID(c)
		}
		a, err := topo.AddAS(asn, fmt.Sprintf("AS%d", asn), topology.Transit, geo.Europe, ids, 1.1, topology.EarlyExit)
		if err != nil {
			t.Fatalf("AddAS %d: %v", asn, err)
		}
		return a.ID
	}
	connect := func(a, b int, rel topology.Rel) {
		if _, err := topo.Connect(a, b, rel, nil, false); err != nil {
			t.Fatalf("Connect %d-%d: %v", a, b, err)
		}
	}
	return topo, addAS, connect
}

// TestCompressionEdgeCases pins the equivalence-class machinery on the
// shapes most likely to break it: multi-homed stubs sharing a class, a
// provider-less peer clique (Tier-1 style ASes whose only adjacencies
// are peer links), parallel links to a merged stub, and prefixes
// originated by every member of a merged class. Answers must be
// bit-identical to the reference for every origin.
func TestCompressionEdgeCases(t *testing.T) {
	topo, addAS, connect := handTopo(t)
	// A provider-less Tier-1 clique of three.
	t1a := addAS(100, []string{"London", "Paris", "NewYork", "Frankfurt"})
	t1b := addAS(101, []string{"London", "Frankfurt", "NewYork", "Madrid"})
	t1c := addAS(102, []string{"Paris", "Frankfurt", "London", "Milan"})
	connect(t1a, t1b, topology.P2P)
	connect(t1a, t1c, topology.P2P)
	connect(t1b, t1c, topology.P2P)
	// Two transits buying from parts of the clique.
	tr1 := addAS(200, []string{"London", "Paris", "Amsterdam"})
	tr2 := addAS(201, []string{"Frankfurt", "London", "Vienna"})
	connect(tr1, t1a, topology.C2P)
	connect(tr1, t1b, topology.C2P)
	connect(tr2, t1b, topology.C2P)
	connect(tr2, t1c, topology.C2P)
	connect(tr1, tr2, topology.P2P)
	// Multi-homed stubs with identical provider sets {tr1, tr2}: one
	// class of three, with distinct footprints (distinct geography).
	s1 := addAS(300, []string{"London", "Manchester"})
	s2 := addAS(301, []string{"Paris", "Frankfurt", "Munich"})
	s3 := addAS(302, []string{"London", "Vienna"})
	for _, s := range []int{s1, s2, s3} {
		connect(s, tr1, topology.C2P)
		connect(s, tr2, topology.C2P)
	}
	// A stub with a parallel link to one provider (still {tr1, tr2} as an
	// AS set — the signature ignores multiplicity, the link choice must not).
	s4 := addAS(303, []string{"London", "Amsterdam", "Vienna"})
	connect(s4, tr1, topology.C2P)
	connect(s4, tr1, topology.C2P)
	connect(s4, tr2, topology.C2P)
	// A stub that peers: providers {tr1} and peer {tr2}; and its twin.
	s5 := addAS(304, []string{"Paris", "London", "Vienna"})
	s6 := addAS(305, []string{"Amsterdam", "London", "Frankfurt", "Vienna"})
	for _, s := range []int{s5, s6} {
		connect(s, tr1, topology.C2P)
		connect(s, tr2, topology.P2P)
	}

	eng, err := NewEngine(topo)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	g := eng.Graph()
	// The provider-less clique ASes have customers, so they are not stubs.
	for _, as := range []int{t1a, t1b, t1c, tr1, tr2} {
		if int(g.classOf[as]) >= 0 {
			t.Fatalf("AS %d should not be in a stub class", as)
		}
	}
	// {s1,s2,s3,s4} share {tr1,tr2} as providers: one class. {s5,s6}
	// share providers {tr1} and peers {tr2}: another.
	if c := int(g.classOf[s1]); c < 0 || int(g.classOf[s2]) != c || int(g.classOf[s3]) != c || int(g.classOf[s4]) != c {
		t.Fatalf("s1..s4 classes = %d,%d,%d,%d; want one shared class",
			int(g.classOf[s1]), int(g.classOf[s2]), int(g.classOf[s3]), int(g.classOf[s4]))
	}
	if c := int(g.classOf[s5]); c < 0 || int(g.classOf[s6]) != c || c == int(g.classOf[s1]) {
		t.Fatalf("s5,s6 classes = %d,%d; want a shared class distinct from s1's %d",
			int(g.classOf[s5]), int(g.classOf[s6]), int(g.classOf[s1]))
	}

	ref := bgp.NewReference(topo)
	// Every AS as origin — merged members, the representative itself,
	// clique members — must answer identically to the reference.
	for as := 0; as < topo.NumASes(); as++ {
		anns := []bgp.Announcement{{Origin: as}}
		want, err := ref.Compute(anns)
		if err != nil {
			t.Fatalf("origin %d: reference: %v", as, err)
		}
		got, err := eng.Compute(anns)
		if err != nil {
			t.Fatalf("origin %d: matbgp: %v", as, err)
		}
		requireSameRIB(t, topo, want, got, fmt.Sprintf("hand origin %d", as))
	}

	// A provider-less peer-only AS is a stub too: detach a fresh pair
	// whose only adjacencies are peer links to the clique.
	p1 := addAS(400, []string{"London", "Paris"})
	p2 := addAS(401, []string{"London", "Frankfurt"})
	for _, p := range []int{p1, p2} {
		connect(p, t1a, topology.P2P)
		connect(p, t1b, topology.P2P)
	}
	eng2, err := NewEngine(topo)
	if err != nil {
		t.Fatalf("NewEngine (extended): %v", err)
	}
	if c := int(eng2.Graph().classOf[p1]); c < 0 || int(eng2.Graph().classOf[p2]) != c {
		t.Fatalf("peer-only stubs p1,p2 classes = %d,%d; want shared",
			int(eng2.Graph().classOf[p1]), int(eng2.Graph().classOf[p2]))
	}
	ref2 := bgp.NewReference(topo)
	for _, as := range []int{p1, p2, t1a, s1} {
		anns := []bgp.Announcement{{Origin: as}}
		want, err := ref2.Compute(anns)
		if err != nil {
			t.Fatalf("extended origin %d: reference: %v", as, err)
		}
		got, err := eng2.Compute(anns)
		if err != nil {
			t.Fatalf("extended origin %d: matbgp: %v", as, err)
		}
		requireSameRIB(t, topo, want, got, fmt.Sprintf("extended origin %d", as))
	}
}

// TestEngineDeterminism: repeated computes of the same query, cached or
// not, return identical routes.
func TestEngineDeterminism(t *testing.T) {
	topo := genTopo(t, 7, 6)
	eng, err := NewEngine(topo)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for as := 0; as < topo.NumASes(); as += 7 {
		anns := []bgp.Announcement{{Origin: as}}
		first, err := eng.Compute(anns)
		if err != nil {
			t.Fatalf("origin %d: %v", as, err)
		}
		second, err := eng.Compute(anns)
		if err != nil {
			t.Fatalf("origin %d (repeat): %v", as, err)
		}
		for v := 0; v < topo.NumASes(); v++ {
			if !reflect.DeepEqual(first.Best(v), second.Best(v)) {
				t.Fatalf("origin %d: repeat compute differs at AS %d", as, v)
			}
		}
	}
}
