package faults

import (
	"reflect"
	"testing"

	"beatbgp/internal/cable"
	"beatbgp/internal/delta"
	"beatbgp/internal/geo"
	"beatbgp/internal/topology"
)

// testTopo builds a tiny world: two transits spanning the hub cities and
// two stubs, one multi-city and one single-homed at NewYork.
func testTopo(t *testing.T) (*topology.Topo, map[string]int, map[string]int) {
	t.Helper()
	catalog := geo.World()
	graph, err := cable.WorldGraph(catalog)
	if err != nil {
		t.Fatal(err)
	}
	topo := &topology.Topo{Catalog: catalog, Graph: graph}
	city := func(name string) int {
		c, ok := catalog.ByName(name)
		if !ok {
			t.Fatalf("city %s", name)
		}
		return c.ID
	}
	cities := map[string]int{
		"NewYork": city("NewYork"), "London": city("London"), "Tokyo": city("Tokyo"),
	}
	hub := []int{cities["NewYork"], cities["London"], cities["Tokyo"]}
	ids := map[string]int{}
	add := func(name string, class topology.Class, cs []int) {
		a, err := topo.AddAS(len(ids)+1, name, class, geo.NorthAmerica, cs, 1.1, topology.EarlyExit)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = a.ID
	}
	add("TRa", topology.Transit, hub)
	add("TRb", topology.Transit, hub)
	add("EYE", topology.Eyeball, hub[:2])
	add("STUB", topology.Eyeball, hub[:1])
	conn := func(a, b string, rel topology.Rel, cs []int) int {
		l, err := topo.Connect(ids[a], ids[b], rel, cs, false)
		if err != nil {
			t.Fatal(err)
		}
		return l.ID
	}
	conn("TRa", "TRb", topology.P2P, nil)  // multi-city
	conn("EYE", "TRa", topology.C2P, nil)  // NewYork+London
	conn("STUB", "TRb", topology.C2P, nil) // NewYork only
	return topo, ids, cities
}

func TestTimelineValidation(t *testing.T) {
	topo, ids, cities := testTopo(t)
	bad := []Event{
		{Kind: LinkDown, Start: -1, Duration: 10, Target: 0},
		{Kind: LinkDown, Start: 0, Duration: 0, Target: 0},
		{Kind: LinkDown, Start: 0, Duration: 10, Target: len(topo.Links)},
		{Kind: CableCut, Start: 0, Duration: 10, Target: topo.Graph.NumEdges()},
		{Kind: ASOutage, Start: 0, Duration: 10, Target: -1},
		{Kind: CongestionStorm, Start: 0, Duration: 10, Target: topo.Catalog.Len(), MagnitudeMs: 5},
		{Kind: CongestionStorm, Start: 0, Duration: 10, Target: cities["NewYork"], MagnitudeMs: 0},
		{Kind: Kind(99), Start: 0, Duration: 10},
	}
	for i, e := range bad {
		if _, err := New(topo, []Event{e}); err == nil {
			t.Errorf("bad event %d (%v) accepted", i, e)
		}
	}
	_ = ids
	if _, err := New(nil, nil); err == nil {
		t.Error("nil topology accepted")
	}
	if tl, err := New(topo, nil); err != nil || tl == nil {
		t.Errorf("empty timeline rejected: %v", err)
	}
}

func TestLinkDownAndBoundaries(t *testing.T) {
	topo, _, _ := testTopo(t)
	tl, err := New(topo, []Event{
		{Kind: LinkDown, Start: 100, Duration: 50, Target: 1},
		{Kind: LinkDown, Start: 10, Duration: 20, Target: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Events are kept sorted regardless of input order.
	ev := tl.Events()
	if ev[0].Start != 10 || ev[1].Start != 100 {
		t.Fatalf("events not sorted: %v", ev)
	}
	// Each link's outage is one [Start, End) window, ordered by start.
	if ws := tl.DownWindows(0); !reflect.DeepEqual(ws, []Window{{Start: 10, End: 30}}) {
		t.Fatalf("link 0 windows = %v", ws)
	}
	if ws := tl.DownWindows(1); !reflect.DeepEqual(ws, []Window{{Start: 100, End: 150}}) {
		t.Fatalf("link 1 windows = %v", ws)
	}
	if ws := tl.DownWindows(2); ws != nil {
		t.Fatalf("unfaulted link 2 has windows %v", ws)
	}
	if ls := tl.FaultedLinks(); !reflect.DeepEqual(ls, []int{0, 1}) {
		t.Fatalf("FaultedLinks = %v, want [0 1]", ls)
	}
}

func TestFacilityRule(t *testing.T) {
	topo, ids, cities := testTopo(t)
	// Darkening NewYork alone drops only STUB's single-homed uplink (link
	// 2), the one link anchored exclusively there; the multi-city links
	// survive.
	if got := linksAnchoredWithin(topo, map[int]bool{cities["NewYork"]: true}); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("a dark NewYork drops %v; only the single-homed stub uplink (2) may drop", got)
	}

	// AS outage downs every link of the AS.
	tl, err := New(topo, []Event{
		{Kind: ASOutage, Start: 0, Duration: 60, Target: ids["TRa"]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.FaultedLinks(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("AS outage downed %v, want every adjacent link [0 1] and nothing else", got)
	}
}

func TestCableCutFacilities(t *testing.T) {
	topo, _, cities := testTopo(t)
	// Find a physical edge incident to NewYork; cutting it darkens the
	// NewYork and far-end facilities — the STUB uplink is anchored only at
	// NewYork, so it drops.
	edges := topo.Graph.EdgesAt(cities["NewYork"])
	if len(edges) == 0 {
		t.Fatal("NewYork has no cable edges")
	}
	tl, err := New(topo, []Event{
		{Kind: CableCut, Start: 0, Duration: 600, Target: edges[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ws := tl.DownWindows(2); !reflect.DeepEqual(ws, []Window{{Start: 0, End: 600}}) {
		t.Fatalf("cable cut at the landing city must drop the single-homed uplink, windows %v", ws)
	}
	if tl.DownWindows(0) != nil {
		t.Fatal("multi-facility transit peering must ride out the cut")
	}
}

func TestStormAndStale(t *testing.T) {
	topo, _, cities := testTopo(t)
	tl, err := New(topo, []Event{
		{Kind: CongestionStorm, Start: 0, Duration: 100, Target: cities["London"], MagnitudeMs: 25},
		{Kind: CongestionStorm, Start: 50, Duration: 100, Target: cities["London"], MagnitudeMs: 10},
		{Kind: LDNSStale, Start: 10, Duration: 5, Target: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Links 0 (TRa-TRb) and 1 (EYE-TRa) interconnect at London; link 2
	// (STUB uplink, NewYork only) does not.
	if got := tl.ExtraLinkMs(0, 75); got != 35 {
		t.Fatalf("concurrent storms should add up: got %v", got)
	}
	if got := tl.ExtraLinkMs(1, 10); got != 25 {
		t.Fatalf("storm magnitude = %v", got)
	}
	if got := tl.ExtraLinkMs(2, 75); got != 0 {
		t.Fatalf("NewYork-only link stormed at London: %v", got)
	}
	if !tl.DNSStale(12) || tl.DNSStale(20) {
		t.Fatal("staleness window wrong")
	}
	// Storms never take links down.
	if ls := tl.FaultedLinks(); len(ls) != 0 {
		t.Fatalf("storms must not down links, faulted %v", ls)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	topo, _, _ := testTopo(t)
	cfg := GenConfig{
		Seed: 7, HorizonMinutes: 24 * 60,
		CableCuts: 2, LinkResets: 3, ASOutages: 1, Storms: 2, StaleWindows: 1,
		PlannedFraction: 0.5,
	}
	a, err := Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same seed produced different schedules")
	}
	if got := len(a.Events()); got != 9 {
		t.Fatalf("generated %d events, want 9", got)
	}
	c, err := Generate(topo, GenConfig{Seed: 8, HorizonMinutes: 24 * 60, CableCuts: 2, LinkResets: 3})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events()[:5], c.Events()[:5]) {
		t.Fatal("different seeds produced identical schedules")
	}
	for _, e := range a.Events() {
		if e.Start < 0 || e.Start >= cfg.HorizonMinutes || e.Duration <= 0 {
			t.Fatalf("generated event out of bounds: %v", e)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	topo, _, _ := testTopo(t)
	if _, err := Generate(nil, GenConfig{}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := Generate(topo, GenConfig{CableCuts: -1}); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := Generate(topo, GenConfig{PlannedFraction: 2}); err == nil {
		t.Error("PlannedFraction > 1 accepted")
	}
	if _, err := Generate(topo, GenConfig{ASOutageMeanMin: -3, ASOutages: 1}); err == nil {
		t.Error("negative mean outage length accepted")
	}
	if _, err := Generate(topo, GenConfig{LinkResets: 1, CandidateLinks: []int{}}); err == nil {
		t.Error("empty explicit candidate pool accepted")
	}
}

func TestDownWindowsMergeAndFaultedLinks(t *testing.T) {
	topo, ids, _ := testTopo(t)
	link := topo.Neighbors(ids["EYE"])[0].Link
	tl, err := New(topo, []Event{
		// Overlapping pair: [10,30) and [20,50) must coalesce to [10,50).
		{Kind: LinkDown, Start: 10, Duration: 20, Target: link},
		{Kind: LinkDown, Start: 20, Duration: 30, Target: link},
		// Touching window: [50,60) extends the merged run to [10,60).
		{Kind: LinkDown, Start: 50, Duration: 10, Target: link},
		// Disjoint window.
		{Kind: LinkDown, Start: 100, Duration: 5, Target: link},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := tl.DownWindows(link)
	want := []Window{{Start: 10, End: 60}, {Start: 100, End: 105}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DownWindows = %v, want %v", got, want)
	}
	if ls := tl.FaultedLinks(); !reflect.DeepEqual(ls, []int{link}) {
		t.Fatalf("FaultedLinks = %v, want [%d]", ls, link)
	}
	if ws := tl.DownWindows(link + 99); ws != nil {
		t.Fatalf("unfaulted link has windows %v", ws)
	}
	// The merged windows keep the [Start, End) contract of the events
	// they summarize.
	for _, probe := range []struct {
		t    float64
		down bool
	}{{9.9, false}, {10, true}, {35, true}, {59.9, true}, {60, false}, {102, true}} {
		if down := inWindows(got, probe.t); down != probe.down {
			t.Fatalf("down at %v = %v, want %v", probe.t, down, probe.down)
		}
	}
}

// inWindows is the test's independent point query: a linear scan of
// [Start, End) windows.
func inWindows(ws []Window, t float64) bool {
	for _, w := range ws {
		if w.Start <= t && t < w.End {
			return true
		}
	}
	return false
}

// TestMergeWindows: overlapping and touching windows coalesce, disjoint
// ones stay apart, input order does not matter, and no windows is nil.
func TestMergeWindows(t *testing.T) {
	got := MergeWindows([]Window{{Start: 30, End: 40}, {Start: 10, End: 20}, {Start: 15, End: 25}, {Start: 25, End: 27}, {Start: 12, End: 14}})
	if want := []Window{{Start: 10, End: 27}, {Start: 30, End: 40}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("MergeWindows = %v, want %v", got, want)
	}
	if MergeWindows(nil) != nil {
		t.Fatal("no windows must merge to nil")
	}
}

// TestDownWindowsBoundaryInstants pins the [Start, End) contract at the
// awkward instants: an event ending exactly at the probe instant is
// over, one starting there is in progress, overlapping events on one
// link merge into one window, and an AS outage downs exactly the AS's
// links over its own span.
func TestDownWindowsBoundaryInstants(t *testing.T) {
	topo, ids, _ := testTopo(t)
	link := topo.Neighbors(ids["EYE"])[0].Link
	stub := topo.Neighbors(ids["STUB"])[0].Link
	tl, err := New(topo, []Event{
		{Kind: LinkDown, Start: 10, Duration: 10, Target: link}, // [10,20)
		{Kind: LinkDown, Start: 15, Duration: 10, Target: link}, // [15,25) overlaps
		{Kind: ASOutage, Start: 20, Duration: 5, Target: ids["STUB"]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.AffectedLinks(tl.Events()[2]); !reflect.DeepEqual(got, []int{stub}) {
		t.Fatalf("STUB outage affects %v, want [%d]", got, stub)
	}
	lw, sw := tl.DownWindows(link), tl.DownWindows(stub)
	if !reflect.DeepEqual(lw, []Window{{Start: 10, End: 25}}) {
		t.Fatalf("DownWindows = %v, want one merged [10,25)", lw)
	}
	for _, probe := range []struct {
		at         float64
		link, stub bool
	}{
		{9.999, false, false},
		{10, true, false}, // starts at its Start
		{15, true, false}, // overlap: still one window
		{19.999, true, false},
		{20, true, true}, // first ends exactly here; the second and the AS outage hold
		{24.999, true, true},
		{25, false, false}, // both end exactly here
	} {
		if l, s := inWindows(lw, probe.at), inWindows(sw, probe.at); l != probe.link || s != probe.stub {
			t.Errorf("at %v: link down %v stub down %v, want %v %v", probe.at, l, s, probe.link, probe.stub)
		}
	}
}

// TestTimelineDeltas checks the timeline's merged windows, compiled into
// an epoch sequence, against an independent scan of those windows: the
// sequence must answer every epoch boundary, the instants 1e-6 either
// side of it, and every mid-epoch point exactly as the scan does; epoch
// boundaries must fall exactly on the instants the injected world
// changes, and a window already open at the span start must be down in
// epoch 0.
func TestTimelineDeltas(t *testing.T) {
	topo, ids, _ := testTopo(t)
	la := topo.Neighbors(ids["EYE"])[0].Link
	lb := topo.Neighbors(ids["STUB"])[0].Link
	tl, err := New(topo, []Event{
		{Kind: LinkDown, Start: 5, Duration: 10, Target: la},  // [5,15): open at t0=8
		{Kind: LinkDown, Start: 12, Duration: 8, Target: la},  // overlap -> merged [5,20)
		{Kind: LinkDown, Start: 30, Duration: 10, Target: lb}, // [30,40)
		{Kind: LinkDown, Start: 35, Duration: 10, Target: la}, // [35,45)
	})
	if err != nil {
		t.Fatal(err)
	}
	compile := func(t0, t1 float64) *delta.Sequence {
		var evs []delta.Event
		for _, l := range tl.FaultedLinks() {
			for _, w := range tl.DownWindows(l) {
				evs = append(evs, delta.Event{At: w.Start, Link: l, Down: true}, delta.Event{At: w.End, Link: l})
			}
		}
		seq, err := delta.Compile(evs, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	seq := compile(8, 60)
	// Change instants inside (8, 60): 20 (la up), 30 (lb down), 35 (la
	// down), 40 (lb up), 45 (la up) — plus epoch 0 at 8 with la already down.
	var starts []float64
	for i := 0; i < seq.Len(); i++ {
		starts = append(starts, seq.Epoch(i).Start)
	}
	if want := []float64{8, 20, 30, 35, 40, 45}; !reflect.DeepEqual(starts, want) {
		t.Fatalf("epoch starts = %v, want %v", starts, want)
	}
	if d := seq.Epoch(0).Down; !reflect.DeepEqual(d, []int{la}) {
		t.Fatalf("epoch 0 down = %v, want [%d] (window open at span start)", d, la)
	}
	var probes []float64
	for i, b := range starts {
		probes = append(probes, b, b-1e-6, b+1e-6)
		end := seq.End()
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		probes = append(probes, (b+end)/2)
	}
	for _, at := range probes {
		if at < seq.Start() {
			continue
		}
		for _, l := range []int{la, lb} {
			if got, want := seq.LinkDownAt(l, at), inWindows(tl.DownWindows(l), at); got != want {
				t.Fatalf("link %d at %v: sequence says down=%v, windows say %v", l, at, got, want)
			}
		}
	}
	// Folding the epoch deltas reproduces each epoch's down set.
	var down map[int]bool
	for i := 0; i < seq.Len(); i++ {
		ep := seq.Epoch(i)
		down = delta.Apply(down, ep.Delta)
		want := ep.DownSet()
		if want == nil {
			want = map[int]bool{}
		}
		got := down
		if got == nil {
			got = map[int]bool{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d folded delta = %v, want %v", i, got, want)
		}
	}
	// A quiet span compiles to a single empty epoch.
	if quiet := compile(100, 200); quiet.Len() != 1 || len(quiet.Epoch(0).Down) != 0 {
		t.Fatalf("quiet span: %d epochs, down %v", quiet.Len(), quiet.Epoch(0).Down)
	}
}
