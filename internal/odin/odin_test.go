package odin

import (
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/cdn"
	"beatbgp/internal/dnsmap"
	"beatbgp/internal/matbgp"
	"beatbgp/internal/netsim"
	"beatbgp/internal/topology"
)

type world struct {
	topo *topology.Topo
	cdn  *cdn.CDN
	dns  *dnsmap.Mapping
	sim  *netsim.Sim
}

func setup(t testing.TB) world {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: 12, EyeballsPerRegion: 8})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cdn.Build(topo, cdn.Config{Seed: 12}, func(t *topology.Topo) (bgp.Computer, error) {
		return matbgp.NewEngine(t)
	})
	if err != nil {
		t.Fatal(err)
	}
	return world{
		topo: topo,
		cdn:  c,
		dns:  dnsmap.Build(topo, dnsmap.Config{Seed: 12}),
		sim:  netsim.New(topo, netsim.Config{Seed: 12}, nil, nil, nil),
	}
}

func TestCollectBasics(t *testing.T) {
	w := setup(t)
	pl := New(w.cdn, w.dns, w.sim, Config{Seed: 1, SampleRate: 0.05})
	agg, err := pl.Collect(w.topo.Prefixes, []float64{60, 600})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Samples() == 0 {
		t.Fatal("campaign collected nothing")
	}
	// Some resolver must have an anycast estimate.
	found := false
	for _, r := range w.dns.Resolvers() {
		if med, n, ok := agg.Estimate(r.ID, cdn.AnycastChoice); ok {
			found = true
			if med <= 0 || n <= 0 {
				t.Fatalf("bad estimate %v/%v", med, n)
			}
		}
	}
	if !found {
		t.Fatal("no anycast estimates")
	}
}

func TestCollectRequiresRounds(t *testing.T) {
	w := setup(t)
	pl := New(w.cdn, w.dns, w.sim, Config{Seed: 1})
	if _, err := pl.Collect(w.topo.Prefixes, nil); err == nil {
		t.Fatal("no rounds accepted")
	}
}

func TestSampleRateScalesBudget(t *testing.T) {
	w := setup(t)
	rounds := []float64{60, 300, 600}
	lo, err := New(w.cdn, w.dns, w.sim, Config{Seed: 2, SampleRate: 0.005}).Collect(w.topo.Prefixes, rounds)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := New(w.cdn, w.dns, w.sim, Config{Seed: 2, SampleRate: 0.05}).Collect(w.topo.Prefixes, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if hi.Samples() <= lo.Samples()*3 {
		t.Fatalf("10x sample rate produced %d vs %d samples", hi.Samples(), lo.Samples())
	}
}

func TestCollectDeterministic(t *testing.T) {
	w := setup(t)
	rounds := []float64{60, 600}
	a, err := New(w.cdn, w.dns, w.sim, Config{Seed: 3}).Collect(w.topo.Prefixes, rounds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(w.cdn, w.dns, w.sim, Config{Seed: 3}).Collect(w.topo.Prefixes, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if a.Samples() != b.Samples() {
		t.Fatalf("sample counts differ: %d vs %d", a.Samples(), b.Samples())
	}
	for _, r := range w.dns.Resolvers() {
		ma, na, oka := a.Estimate(r.ID, cdn.AnycastChoice)
		mb, nb, okb := b.Estimate(r.ID, cdn.AnycastChoice)
		if oka != okb || ma != mb || na != nb {
			t.Fatal("estimates differ across identical campaigns")
		}
	}
}

func TestDecide(t *testing.T) {
	w := setup(t)
	pl := New(w.cdn, w.dns, w.sim, Config{Seed: 4, SampleRate: 0.05})
	agg, err := pl.Collect(w.topo.Prefixes, []float64{60, 300, 600, 900})
	if err != nil {
		t.Fatal(err)
	}
	plain := Decide(agg, 3, 0)
	if len(plain) == 0 {
		t.Fatal("no decisions")
	}
	overrides := 0
	for _, choice := range plain {
		if choice != cdn.AnycastChoice {
			overrides++
			if choice < 0 || choice >= len(w.cdn.Sites) {
				t.Fatalf("bad site decision %d", choice)
			}
		}
	}
	if overrides == 0 {
		t.Fatal("decisions never override anycast")
	}
	// A margin can only reduce overrides.
	margin := Decide(agg, 3, 15)
	mo := 0
	for _, choice := range margin {
		if choice != cdn.AnycastChoice {
			mo++
		}
	}
	if mo > overrides {
		t.Fatalf("margin increased overrides: %d vs %d", mo, overrides)
	}
	// Feeding decisions into the cdn redirector must round-trip.
	rd := cdn.NewRedirector(plain, nil)
	for _, p := range w.topo.Prefixes[:10] {
		choice := rd.Decision(p, w.dns)
		if choice != cdn.AnycastChoice && (choice < 0 || choice >= len(w.cdn.Sites)) {
			t.Fatalf("redirector decision %d out of range", choice)
		}
	}
}

func TestMinSamplesGuards(t *testing.T) {
	w := setup(t)
	pl := New(w.cdn, w.dns, w.sim, Config{Seed: 5, SampleRate: 0.002})
	agg, err := pl.Collect(w.topo.Prefixes, []float64{60})
	if err != nil {
		t.Fatal(err)
	}
	strict := Decide(agg, 1_000_000, 0)
	for r, choice := range strict {
		if choice != cdn.AnycastChoice {
			t.Fatalf("resolver %d overrode anycast without enough samples", r)
		}
	}
}
