package workload

import (
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/netpath"
	"beatbgp/internal/netsim"
	"beatbgp/internal/provider"
	"beatbgp/internal/topology"
)

type fixture struct {
	topo *topology.Topo
	prov *provider.Provider
	sim  *netsim.Sim
	res  *netpath.Resolver
	gen  *Generator
	ora  *bgp.Oracle
}

func setup(t testing.TB) fixture {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: 8, EyeballsPerRegion: 8})
	if err != nil {
		t.Fatal(err)
	}
	prov, err := provider.Build(topo, provider.Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(topo, netsim.Config{Seed: 8}, nil, nil, nil)
	res := netpath.NewResolver(topo)
	gen := NewGenerator(sim, res, Config{Seed: 8, Days: 2})
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

func BenchmarkObserve(b *testing.B) {
	f := setup(b)
	var p topology.Prefix
	var opts []provider.EgressOption
	var pop int
	for _, cand := range f.topo.Prefixes {
		rib, err := f.ora.ToPrefix(cand)
		if err != nil {
			b.Fatal(err)
		}
		pop = f.prov.ServingPoP(cand.City)
		opts = f.prov.EgressOptions(rib, pop)
		if len(opts) > 0 {
			p = cand
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.gen.Observe(pop, p, opts); err != nil {
			b.Fatal(err)
		}
	}
}
