package netsim

import (
	"fmt"
	"math"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/netpath"
	"beatbgp/internal/topology"
)

// fixture builds a generated topology plus one resolved route to the
// first prefix.
type fixture struct {
	topo   *topology.Topo
	prefix topology.Prefix
	route  netpath.Route
	alt    netpath.Route // a second, different resolved route (may be zero)
}

func setup(t testing.TB) fixture {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: 5, EyeballsPerRegion: 6})
	if err != nil {
		t.Fatal(err)
	}
	oracle := bgp.NewOracle(bgp.NewReference(topo))
	res := netpath.NewResolver(topo)
	for _, p := range topo.Prefixes {
		rib, err := oracle.ToPrefix(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, asID := range topo.ByClass(topology.Eyeball) {
			if asID == p.Origin {
				continue
			}
			r := rib.Best(asID)
			if !r.Valid || len(r.Links) == 0 {
				continue
			}
			src := topo.ASes[asID].Cities[0]
			phys, err := res.Resolve(r, src, p.City)
			if err != nil {
				continue
			}
			f := fixture{topo: topo, prefix: p, route: phys}
			// Find an alternate via offers for richer tests.
			for _, off := range rib.OffersTo(asID) {
				if off.Link == r.Link {
					continue
				}
				if alt, err := res.Resolve(off.Route, src, p.City); err == nil {
					f.alt = alt
					break
				}
			}
			return f
		}
	}
	t.Fatal("no usable fixture")
	return fixture{}
}

func TestRTTAboveProp(t *testing.T) {
	f := setup(t)
	s := New(f.topo, Config{Seed: 1}, nil, nil)
	for tm := 0.0; tm < 24*60; tm += 97 {
		rtt := s.RouteRTTMs(f.route, f.prefix, tm)
		if rtt < f.route.PropRTTMs() {
			t.Fatalf("RTT %v below propagation %v", rtt, f.route.PropRTTMs())
		}
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	f := setup(t)
	a := New(f.topo, Config{Seed: 9}, nil, nil)
	b := New(f.topo, Config{Seed: 9}, nil, nil)
	// Query b in a different order to confirm order independence.
	_ = b.RouteRTTMs(f.route, f.prefix, 5000)
	for tm := 0.0; tm < 3000; tm += 333 {
		if av, bv := a.RouteRTTMs(f.route, f.prefix, tm), b.RouteRTTMs(f.route, f.prefix, tm); av != bv {
			t.Fatalf("instances diverge at t=%v: %v vs %v", tm, av, bv)
		}
	}
}

func TestSeedChangesCongestion(t *testing.T) {
	f := setup(t)
	a := New(f.topo, Config{Seed: 1}, nil, nil)
	b := New(f.topo, Config{Seed: 2}, nil, nil)
	diff := false
	for tm := 0.0; tm < 5000; tm += 100 {
		if a.RouteRTTMs(f.route, f.prefix, tm) != b.RouteRTTMs(f.route, f.prefix, tm) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical congestion")
	}
}

func TestSharedFateHitsAllRoutes(t *testing.T) {
	f := setup(t)
	if len(f.alt.Hops) == 0 {
		t.Skip("no alternate route in fixture")
	}
	s := New(f.topo, Config{Seed: 3}, nil, nil)
	// Find a moment with a strong prefix incident.
	base := s.prefixProcFor(f.prefix).baseMs
	found := false
	for tm := 0.0; tm < s.cfg.HorizonMinutes; tm += 7 {
		lm := s.LastMileMs(f.prefix, tm)
		if lm > base+10 {
			found = true
			// Both routes see the same surge in their last-mile component.
			r1 := s.RouteRTTMs(f.route, f.prefix, tm)
			r2 := s.RouteRTTMs(f.alt, f.prefix, tm)
			if r1 < lm || r2 < lm {
				t.Fatalf("a route dodged the shared-fate congestion: %v %v < %v", r1, r2, lm)
			}
			break
		}
	}
	if !found {
		t.Skip("no large prefix incident in horizon (rare seed)")
	}
}

func TestDisableSharedFateAblation(t *testing.T) {
	f := setup(t)
	on := New(f.topo, Config{Seed: 4}, nil, nil)
	off := New(f.topo, Config{Seed: 4, DisableSharedFate: true}, nil, nil)
	base := off.LastMileMs(f.prefix, 0)
	for tm := 0.0; tm < 3*24*60; tm += 13 {
		if off.LastMileMs(f.prefix, tm) != base {
			t.Fatal("ablation still varies last-mile latency")
		}
	}
	varied := false
	for tm := 0.0; tm < 3*24*60; tm += 13 {
		if on.LastMileMs(f.prefix, tm) != on.LastMileMs(f.prefix, 0) {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("default config produced flat last-mile latency")
	}
}

func TestDiurnalShape(t *testing.T) {
	// Peak at 21:00 local, zero at noon.
	if d := diurnal(21*60, 0); math.Abs(d-1) > 1e-9 {
		t.Fatalf("diurnal at 21:00 = %v, want 1", d)
	}
	if d := diurnal(12*60, 0); d != 0 {
		t.Fatalf("diurnal at noon = %v, want 0", d)
	}
	// Monotone rise through the evening.
	if diurnal(18*60, 0) >= diurnal(20*60, 0) {
		t.Fatal("diurnal should rise toward the peak")
	}
	// Phase shifts with longitude: 21:00 UTC is off-peak for a +9h city.
	if diurnal(21*60, 9) >= diurnal(12*60, 9) && diurnal(21*60, 9) > 0.5 {
		t.Fatal("phase offset not applied")
	}
	// Always in [0,1].
	for m := 0.0; m < 48*60; m += 11 {
		d := diurnal(m, -7.5)
		if d < 0 || d > 1 {
			t.Fatalf("diurnal out of range: %v", d)
		}
	}
}

func TestMinRTTAtMostMaxOfWindow(t *testing.T) {
	f := setup(t)
	s := New(f.topo, Config{Seed: 6}, nil, nil)
	for tm := 0.0; tm < 24*60; tm += 60 {
		minRTT := s.MinRTTMs(f.route, f.prefix, tm, 15)
		// MinRTT must be at least the propagation floor and at most the
		// max instantaneous RTT in the window plus the sampling residue.
		if minRTT < f.route.PropRTTMs() {
			t.Fatalf("MinRTT %v below propagation", minRTT)
		}
		maxInWindow := 0.0
		for i := 0; i < 15; i++ {
			if v := s.RouteRTTMs(f.route, f.prefix, tm+float64(i)); v > maxInWindow {
				maxInWindow = v
			}
		}
		if minRTT > maxInWindow+5 {
			t.Fatalf("MinRTT %v far above window max %v", minRTT, maxInWindow)
		}
	}
}

func TestMinRTTStableAcrossCalls(t *testing.T) {
	f := setup(t)
	s := New(f.topo, Config{Seed: 8}, nil, nil)
	a := s.MinRTTMs(f.route, f.prefix, 100, 15)
	b := s.MinRTTMs(f.route, f.prefix, 100, 15)
	if a != b {
		t.Fatalf("MinRTT not stable: %v vs %v", a, b)
	}
}

func TestLossRateBounds(t *testing.T) {
	f := setup(t)
	s := New(f.topo, Config{Seed: 10}, nil, nil)
	for tm := 0.0; tm < 24*60; tm += 37 {
		l := s.LossRate(f.route, f.prefix, tm)
		if l < 0.0005 || l > 0.2 {
			t.Fatalf("loss rate %v out of bounds", l)
		}
	}
}

func TestLinkFailures(t *testing.T) {
	f := setup(t)
	s := New(f.topo, Config{Seed: 12, LinkFailuresPerDay: 2}, nil, nil)
	link := f.route.Links[0]
	down := 0.0
	for tm := 0.0; tm < 10*24*60; tm++ {
		if s.LinkFailed(link, tm) {
			down++
		}
	}
	if down == 0 {
		t.Fatal("no failures with 2/day over 10 days")
	}
	wantDown := s.DowntimeMinutes(link, 0, 10*24*60)
	if math.Abs(down-wantDown) > wantDown*0.1+5 {
		t.Fatalf("sampled downtime %v vs scheduled %v", down, wantDown)
	}
	// RouteUp is false exactly when some link failed.
	anyDownMoment := -1.0
	for tm := 0.0; tm < 10*24*60; tm++ {
		if s.LinkFailed(link, tm) {
			anyDownMoment = tm
			break
		}
	}
	if anyDownMoment >= 0 && s.RouteUp(f.route, anyDownMoment) {
		t.Fatal("RouteUp true while a link is failed")
	}
}

func TestScaleLinkFailures(t *testing.T) {
	f := setup(t)
	link := f.route.Links[0]
	base := New(f.topo, Config{Seed: 14, LinkFailuresPerDay: 0.5}, nil, nil)
	scales := map[int]float64{link: 10}
	scaled := New(f.topo, Config{Seed: 14, LinkFailuresPerDay: 0.5}, nil, scales)
	scales[link] = 1 // the Sim holds its own copy
	horizon := base.cfg.HorizonMinutes
	if b, s2 := base.DowntimeMinutes(link, 0, horizon), scaled.DowntimeMinutes(link, 0, horizon); s2 <= b {
		t.Fatalf("scaled downtime %v not above base %v", s2, b)
	}
}

func TestPersistentImpairmentExists(t *testing.T) {
	f := setup(t)
	s := New(f.topo, Config{Seed: 16}, nil, nil)
	impaired := 0
	for l := range f.topo.Links {
		if s.linkProcFor(l).impairMs > 0 {
			impaired++
		}
	}
	frac := float64(impaired) / float64(len(f.topo.Links))
	if frac < 0.02 || frac > 0.15 {
		t.Fatalf("impaired link fraction = %v, want ~0.06", frac)
	}
}

func BenchmarkMinRTT(b *testing.B) {
	f := setup(b)
	s := New(f.topo, Config{Seed: 1}, nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.MinRTTMs(f.route, f.prefix, float64(i%10000), 15)
	}
}

// TestCloneBitIdentical: a clone samples the same world as its parent —
// the per-worker state-factory contract of the parallel runtime.
func TestCloneBitIdentical(t *testing.T) {
	f := setup(t)
	parent := New(f.topo, Config{Seed: 11}, nil, nil)
	// Warm the parent out of order relative to how the clone will query.
	_ = parent.MinRTTMs(f.route, f.prefix, 300, 15)
	clone := parent.Clone()
	for _, tm := range []float64{0, 45, 300, 1440, 9999} {
		if a, b := parent.MinRTTMs(f.route, f.prefix, tm, 15), clone.MinRTTMs(f.route, f.prefix, tm, 15); a != b {
			t.Fatalf("t=%v: clone MinRTT %v != parent %v", tm, b, a)
		}
		if a, b := parent.LastMileMs(f.prefix, tm), clone.LastMileMs(f.prefix, tm); a != b {
			t.Fatalf("t=%v: clone LastMile %v != parent %v", tm, b, a)
		}
		if a, b := parent.RouteUp(f.route, tm), clone.RouteUp(f.route, tm); a != b {
			t.Fatalf("t=%v: clone RouteUp %v != parent %v", tm, b, a)
		}
	}
}

// downOverlay is a fault overlay holding one link down over [from, to).
type downOverlay struct {
	link     int
	from, to float64
}

func (o downOverlay) LinkDownAt(l int, t float64) bool { return l == o.link && t >= o.from && t < o.to }
func (o downOverlay) ExtraLinkMs(int, float64) float64 { return 0 }

// TestCloneCarriesFailureScales: the failure-rate scales and the fault
// overlay bound at construction must shape the clone's answers
// identically.
func TestCloneCarriesFailureScales(t *testing.T) {
	f := setup(t)
	if len(f.route.Links) == 0 {
		t.Skip("route crosses no interdomain link")
	}
	link := f.route.Links[0]
	parent := New(f.topo, Config{Seed: 3}, downOverlay{link: link, from: 100, to: 200}, map[int]float64{link: 50})
	clone := parent.Clone()
	a := parent.DowntimeMinutes(link, 0, 16*24*60)
	b := clone.DowntimeMinutes(link, 0, 16*24*60)
	if a != b {
		t.Fatalf("clone downtime %v != parent %v", b, a)
	}
	if !parent.LinkFailed(link, 150) || !clone.LinkFailed(link, 150) {
		t.Fatal("fault overlay not honored by the parent and its clone")
	}
}

// TestConcurrentQueries hits one shared Sim from many goroutines under
// -race: the memo must stay consistent and the answers bit-identical to a
// serially warmed twin.
func TestConcurrentQueries(t *testing.T) {
	f := setup(t)
	shared := New(f.topo, Config{Seed: 7}, nil, nil)
	oracle := New(f.topo, Config{Seed: 7}, nil, nil)
	times := make([]float64, 64)
	for i := range times {
		times[i] = float64(i) * 37
	}
	want := make([]float64, len(times))
	for i, tm := range times {
		want[i] = oracle.MinRTTMs(f.route, f.prefix, tm, 15)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i, tm := range times {
				if got := shared.MinRTTMs(f.route, f.prefix, tm, 15); got != want[i] {
					done <- fmt.Errorf("t=%v: concurrent %v != serial %v", tm, got, want[i])
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
