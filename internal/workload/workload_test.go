package workload

import (
	"fmt"
	"slices"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/netpath"
	"beatbgp/internal/netsim"
	"beatbgp/internal/provider"
	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

type fixture struct {
	topo *topology.Topo
	prov *provider.Provider
	sim  *netsim.Sim
	res  *netpath.Resolver
	gen  *Generator
	ora  *bgp.Oracle
}

func setup(t testing.TB) fixture { return setupWorld(t, 8, 2) }

// setupWorld builds a small world (eight eyeballs per region) at seed,
// with a generator over days.
func setupWorld(t testing.TB, seed uint64, days int) fixture {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: seed, EyeballsPerRegion: 8})
	if err != nil {
		t.Fatal(err)
	}
	prov, err := provider.Build(topo, provider.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(topo, netsim.Config{Seed: seed}, nil, nil, nil)
	res := netpath.NewResolver(topo)
	gen := NewGenerator(sim, res, Config{Seed: seed, Days: days})
	return fixture{topo, prov, sim, res, gen, bgp.NewOracle(bgp.NewReference(topo))}
}

func (f fixture) traceFor(t testing.TB, p topology.Prefix) (Trace, bool) {
	t.Helper()
	rib, err := f.ora.ToPrefix(p)
	if err != nil {
		t.Fatal(err)
	}
	pop := f.prov.ServingPoP(p.City)
	opts := f.prov.EgressOptions(rib, pop)
	if len(opts) == 0 {
		return Trace{}, false
	}
	tr, err := f.gen.Observe(pop, p, opts)
	if err != nil {
		return Trace{}, false
	}
	return tr, true
}

func TestWindows(t *testing.T) {
	w := Windows(10, 15)
	if len(w) != 960 {
		t.Fatalf("10 days of 15-min windows = %d, want 960", len(w))
	}
	if w[0] != 0 || w[1] != 15 || w[959] != 14385 {
		t.Fatal("window starts wrong")
	}
}

func TestObserveShape(t *testing.T) {
	f := setup(t)
	var tr Trace
	ok := false
	for _, p := range f.topo.Prefixes {
		if tr, ok = f.traceFor(t, p); ok {
			break
		}
	}
	if !ok {
		t.Fatal("no observable prefix")
	}
	if len(tr.Routes) == 0 || len(tr.Routes) > 3 {
		t.Fatalf("route count %d", len(tr.Routes))
	}
	if len(tr.Windows) != 192 { // 2 days of 15-min windows
		t.Fatalf("window count %d, want 192", len(tr.Windows))
	}
	for _, w := range tr.Windows {
		if len(w.MedianMinRTTMs) != len(tr.Routes) {
			t.Fatal("per-window medians misaligned with routes")
		}
		for i, v := range w.MedianMinRTTMs {
			if v < tr.Routes[i].Phys.PropRTTMs() {
				t.Fatalf("median MinRTT %v below propagation %v", v, tr.Routes[i].Phys.PropRTTMs())
			}
		}
		if w.VolumeBytes <= 0 {
			t.Fatal("non-positive volume")
		}
	}
}

func TestObserveDeterministic(t *testing.T) {
	f1 := setup(t)
	f2 := setup(t)
	for _, p := range f1.topo.Prefixes {
		tr1, ok1 := f1.traceFor(t, p)
		tr2, ok2 := f2.traceFor(t, p)
		if ok1 != ok2 {
			t.Fatal("observability differs")
		}
		if !ok1 {
			continue
		}
		for i := range tr1.Windows {
			for j := range tr1.Windows[i].MedianMinRTTMs {
				if tr1.Windows[i].MedianMinRTTMs[j] != tr2.Windows[i].MedianMinRTTMs[j] {
					t.Fatal("trace not deterministic")
				}
			}
		}
		break
	}
}

func TestVolumeFollowsDiurnal(t *testing.T) {
	f := setup(t)
	var tr Trace
	ok := false
	for _, p := range f.topo.Prefixes {
		if tr, ok = f.traceFor(t, p); ok {
			break
		}
	}
	if !ok {
		t.Fatal("no observable prefix")
	}
	lo, hi := tr.Windows[0].VolumeBytes, tr.Windows[0].VolumeBytes
	for _, w := range tr.Windows {
		if w.VolumeBytes < lo {
			lo = w.VolumeBytes
		}
		if w.VolumeBytes > hi {
			hi = w.VolumeBytes
		}
	}
	if hi <= lo {
		t.Fatal("volume flat across the day")
	}
}

func TestObserveNoOptions(t *testing.T) {
	f := setup(t)
	p := f.topo.Prefixes[0]
	pop := f.prov.ServingPoP(p.City)
	if _, err := f.gen.Observe(pop, p, nil); err == nil {
		t.Fatal("empty options accepted")
	}
}

func TestPreferredRouteFirst(t *testing.T) {
	f := setup(t)
	for _, p := range f.topo.Prefixes[:40] {
		rib, err := f.ora.ToPrefix(p)
		if err != nil {
			t.Fatal(err)
		}
		pop := f.prov.ServingPoP(p.City)
		opts := f.prov.EgressOptions(rib, pop)
		if len(opts) == 0 {
			continue
		}
		tr, err := f.gen.Observe(pop, p, opts)
		if err != nil {
			continue
		}
		// Routes[0] must correspond to the first resolvable option, which
		// is BGP's preference order.
		if tr.Routes[0].Option.Class > opts[len(opts)-1].Class {
			t.Fatal("first trace route has worse class than last option")
		}
	}
}

// firstObservable returns the first prefix with egress options at its
// serving PoP.
func (f fixture) firstObservable(t testing.TB) (int, topology.Prefix, []provider.EgressOption) {
	t.Helper()
	for _, p := range f.topo.Prefixes {
		rib, err := f.ora.ToPrefix(p)
		if err != nil {
			t.Fatal(err)
		}
		pop := f.prov.ServingPoP(p.City)
		if opts := f.prov.EgressOptions(rib, pop); len(opts) > 0 {
			return pop, p, opts
		}
	}
	t.Fatal("no prefix has egress options")
	return 0, topology.Prefix{}, nil
}

func BenchmarkObserve(b *testing.B) {
	f := setup(b)
	pop, p, opts := f.firstObservable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.gen.Observe(pop, p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestObserveAllocs: a trace's allocations do not grow with its length,
// so no per-window heap value (such as a generator per window and route)
// can come back. One seed-42 Observe allocates 47 times at either
// length (go1.24): the resolved city paths of its routes, the trace's
// window, floor and median buffers, the session scratch, and the batch
// MinRTT's per-route terms.
func TestObserveAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	f := setupWorld(t, 42, 1)
	pop, p, opts := f.firstObservable(t)
	allocs := func(days int) float64 {
		gen := NewGenerator(f.sim, f.res, Config{Seed: 42, Days: days})
		return testing.AllocsPerRun(20, func() {
			if _, err := gen.Observe(pop, p, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(1), allocs(10)
	t.Logf("Observe allocs: %v at 1 day, %v at 10 days", short, long)
	if short != long {
		t.Fatalf("Observe allocates %v times at 1 day but %v at 10 days", short, long)
	}
}

// observeSorted is Observe as it was before xrand.ExpKth: nine Exp
// draws per window and route, sorted, and the middle one read. It is
// the oracle the campaign's traces are checked against.
func (g *Generator) observeSorted(popCity int, p topology.Prefix, options []provider.EgressOption) (Trace, error) {
	tr := Trace{PoPCity: popCity, Prefix: p, Routes: Egress(g.res, popCity, p, options, g.cfg.TopK)}
	if len(tr.Routes) == 0 {
		return Trace{}, fmt.Errorf("workload: no resolvable egress route for prefix %d at city %d", p.ID, popCity)
	}
	rng := xrand.New(g.cfg.Seed ^ uint64(p.ID)*0x9e3779b97f4a7c15 ^ uint64(popCity)<<32)
	windows := Windows(g.cfg.Days, g.cfg.WindowMin)
	k := len(tr.Routes)
	floors := make([][]float64, k)
	routes := make([]netpath.Route, k)
	for j, ro := range tr.Routes {
		floors[j] = make([]float64, len(windows))
		routes[j] = ro.Phys
	}
	g.sim.MinRTTsMs(routes, p, g.cfg.WindowMin, floors)
	tr.Windows = make([]WindowObs, len(windows))
	jit := make([]float64, g.cfg.SessionsPW)
	for w, start := range windows {
		obs := WindowObs{Start: start, MedianMinRTTMs: make([]float64, k)}
		for j := range tr.Routes {
			for i := range jit {
				jit[i] = rng.Exp(0.25)
			}
			slices.Sort(jit)
			obs.MedianMinRTTMs[j] = floors[j][w] + jit[len(jit)/2]
		}
		local := start/60 + g.phaseHours(p)
		obs.VolumeBytes = p.Weight * (0.4 + diurnalVolume(local))
		tr.Windows[w] = obs
	}
	return tr, nil
}

// ObserveSorted is the sort-based oracle, for the external tests.
var ObserveSorted = (*Generator).observeSorted
