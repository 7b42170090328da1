package session

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"beatbgp/internal/cable"
	"beatbgp/internal/delta"
	"beatbgp/internal/faults"
	"beatbgp/internal/geo"
	"beatbgp/internal/topology"
)

// testTopo builds the same tiny world the faults tests use: two transits
// spanning the hub cities and two stubs.
func testTopo(t testing.TB) (*topology.Topo, map[string]int) {
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
	hub := []int{city("NewYork"), city("London"), city("Tokyo")}
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
	links := map[string]int{}
	conn := func(key, a, b string, rel topology.Rel) {
		l, err := topo.Connect(ids[a], ids[b], rel, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		links[key] = l.ID
	}
	conn("trab", "TRa", "TRb", topology.P2P)
	conn("eye", "EYE", "TRa", topology.C2P)
	conn("stub", "STUB", "TRb", topology.C2P)
	return topo, links
}

// timeline builds an explicit LinkDown schedule: each entry is
// (link, startMin, durationMin).
func timeline(t testing.TB, topo *topology.Topo, evs [][3]float64) *faults.Timeline {
	t.Helper()
	var events []faults.Event
	for _, e := range evs {
		events = append(events, faults.Event{
			Kind: faults.LinkDown, Target: int(e[0]), Start: e[1], Duration: e[2],
		})
	}
	tl, err := faults.New(topo, events)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	def := Config{}.ApplyDefaults()
	if def.HoldSec != 36 || def.KeepaliveSec != 12 || def.MRAISec != 30 {
		t.Fatalf("unexpected defaults: %+v", def)
	}
	// Tuning only the hold timer keeps the 3:1 keepalive ratio.
	if c := (Config{HoldSec: 9}).ApplyDefaults(); c.KeepaliveSec != 3 {
		t.Fatalf("KeepaliveSec = %v, want 3", c.KeepaliveSec)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	bad := []Config{
		{HoldSec: 10, KeepaliveSec: 10}, // keepalive >= hold
		{HoldSec: math.NaN()},           // non-finite
		{DampReuse: 3000},               // reuse >= suppress
		{BFDMultiplier: -2},             // silly multiplier
		{HoldSec: 7200},                 // timer beyond an hour
		{ConnectRetrySec: -1},           // negative timer
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, c)
		}
	}
	// An infinite hold makes the derived keepalive infinite too; the
	// error names the first invalid field in declaration order, every
	// time.
	for i := 0; i < 10; i++ {
		if err := (Config{HoldSec: math.Inf(1)}).Validate(); err == nil || !strings.Contains(err.Error(), "HoldSec = +Inf") {
			t.Fatalf("Config{HoldSec: +Inf}.Validate() = %v, want it to name HoldSec", err)
		}
	}
	// Calibration: the default mean detection matches the reference
	// model's base term, and MRAI matches its per-hop term.
	if got := def.MeanDetectSec() / 60; got != 0.5 {
		t.Fatalf("mean detect %v min, want 0.5", got)
	}
	if got := def.ExplorationMinutes(3); got != 1.5 {
		t.Fatalf("exploration(3) = %v, want 1.5", got)
	}
	bfd := Config{BFD: true}.ApplyDefaults()
	if got := bfd.MeanDetectSec(); got != 0.9 {
		t.Fatalf("bfd mean detect %v s, want 0.9", got)
	}
}

func TestHandshakePath(t *testing.T) {
	s := stIdle
	for _, step := range []struct {
		ev   fsmEv
		want fsmState
	}{
		{evStart, stConnect}, {evTCPOpen, stOpenSent}, {evBGPOpen, stOpenConfirm}, {evKeepalive, stEstablished},
	} {
		var ok bool
		s, ok = fsmStep(s, step.ev)
		if !ok || s != step.want {
			t.Fatalf("after %v: state %v ok=%v, want %v", step.ev, s, ok, step.want)
		}
	}
	// Keepalives refresh stEstablished; a stray OPEN is an FSM error and
	// resets.
	if s, _ := fsmStep(stEstablished, evKeepalive); s != stEstablished {
		t.Fatalf("keepalive in Established -> %v", s)
	}
	if s, _ := fsmStep(stEstablished, evBGPOpen); s != stIdle {
		t.Fatalf("OPEN in Established -> %v, want Idle", s)
	}
	// Out-of-range inputs are total and reset.
	if s, ok := fsmStep(fsmState(200), evStart); ok || s != stIdle {
		t.Fatalf("bogus state -> %v ok=%v", s, ok)
	}
	if s, ok := fsmStep(stIdle, fsmEv(200)); ok || s != stIdle {
		t.Fatalf("bogus event -> %v ok=%v", s, ok)
	}
}

func TestReplayDetectsLongFault(t *testing.T) {
	topo, links := testTopo(t)
	link := links["eye"]
	tl := timeline(t, topo, [][3]float64{{float64(link), 10, 10}})
	h, err := Replay(tl, nil, Config{}, 42, 200)
	if err != nil {
		t.Fatal(err)
	}
	outs := outagesOf(h, link)
	if len(outs) != 1 {
		t.Fatalf("outages = %+v, want 1", outs)
	}
	o := outs[0]
	if !o.Detected || o.Detector != evHoldExpire || o.Flaps != 1 {
		t.Fatalf("outage %+v: want detected via hold, 1 flap", o)
	}
	// Detection lands within [Hold-KA, Hold] of the fault onset.
	if lat := o.DetectAt - o.Start; lat < 24.0/60-1e-9 || lat > 36.0/60+1e-9 {
		t.Fatalf("detect latency %v min outside [0.4, 0.6]", lat)
	}
	if lat, ok := h.DetectionLatencyMin(link, 10); !ok || lat != o.DetectAt-10 {
		t.Fatalf("DetectionLatencyMin = %v, %v", lat, ok)
	}
	// The route comes back only after recovery + retry + handshake: a
	// control-plane tail past the physical end.
	if o.End != 20 || o.UsableAt <= 20 || o.UsableAt > 21 {
		t.Fatalf("outage %+v: want End=20, UsableAt in (20, 21]", o)
	}
	if got := h.UnusableMinutes(link); got <= 10 || got > 11 {
		t.Fatalf("UnusableMinutes = %v, want (10, 11]", got)
	}
	if got := h.PhysDownMinutes(link); got != 10 {
		t.Fatalf("PhysDownMinutes = %v, want 10", got)
	}
	// The full FSM walked: drop, then a complete handshake back up.
	var evs []fsmEv
	for _, tr := range transitionsOf(h, link) {
		evs = append(evs, tr.Ev)
	}
	want := []fsmEv{evHoldExpire, evStart, evTCPOpen, evBGPOpen, evKeepalive}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("transitions %v, want %v", evs, want)
	}
	// The compiled sequence: physically down mid-fault, control-down
	// after recovery until usable, up afterwards.
	seq, err := h.Deltas(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.LinkDownAt(link, 15) {
		t.Fatal("link should be down mid-fault")
	}
	if !seq.LinkDownAt(link, (20+o.UsableAt)/2) {
		t.Fatal("link should be control-plane down after recovery")
	}
	if seq.LinkDownAt(link, o.UsableAt+0.01) {
		t.Fatal("link should be usable after re-advertisement")
	}
	if seq.LinkDownAt(links["stub"], 15) {
		t.Fatal("unfaulted link reported down")
	}
}

// A fault shorter than the detection window is invisible to the hold
// timer — the session survives and nothing is withdrawn — but BFD's
// sub-second detection catches it.
func TestShortFaultInvisibleToHoldCaughtByBFD(t *testing.T) {
	topo, links := testTopo(t)
	link := links["eye"]
	// 6 seconds of downtime: under any keepalive phase the next arrival
	// after recovery beats the 36s hold deadline.
	tl := timeline(t, topo, [][3]float64{{float64(link), 30, 0.1}})

	slow, err := Replay(tl, nil, Config{}, 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	outs := outagesOf(slow, link)
	if len(outs) != 1 || outs[0].Detected || outs[0].Flaps != 0 {
		t.Fatalf("hold-timer outages = %+v, want one undetected", outs)
	}
	if got := slow.Flaps(link); got != 0 {
		t.Fatalf("flaps = %d, want 0", got)
	}
	if ctl := slow.CtlDown(link); len(ctl) != 0 {
		t.Fatalf("ctlDown = %+v, want none (no withdrawal)", ctl)
	}
	if _, ok := slow.DetectionLatencyMin(link, 30); ok {
		t.Fatal("undetected fault reported a detection latency")
	}
	// Unusable time is exactly the physical window: no control tail.
	if got := slow.UnusableMinutes(link); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("UnusableMinutes = %v, want 0.1", got)
	}

	fast, err := Replay(tl, nil, Config{BFD: true}, 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	outs = outagesOf(fast, link)
	if len(outs) != 1 || !outs[0].Detected || outs[0].Detector != evLinkDown {
		t.Fatalf("BFD outages = %+v, want one detected via bfd", outs)
	}
	if lat := outs[0].DetectAt - outs[0].Start; lat <= 0 || lat > (0.9+0.3)/60+1e-9 {
		t.Fatalf("BFD detect latency %v min outside (0, 0.02]", lat)
	}
}

// Overlapping fault events on one link merge into a single continuous
// outage episode with one detection.
func TestOverlappingFaultWindows(t *testing.T) {
	topo, links := testTopo(t)
	link := links["eye"]
	tl := timeline(t, topo, [][3]float64{
		{float64(link), 10, 20}, // [10, 30)
		{float64(link), 20, 30}, // [20, 50) — overlaps
		{float64(link), 50, 5},  // [50, 55) — touches
	})
	h, err := Replay(tl, nil, Config{}, 42, 200)
	if err != nil {
		t.Fatal(err)
	}
	outs := outagesOf(h, link)
	if len(outs) != 1 {
		t.Fatalf("outages = %+v, want one merged episode", outs)
	}
	o := outs[0]
	if o.Start != 10 || o.End != 55 || !o.Detected || o.Flaps != 1 {
		t.Fatalf("merged episode %+v", o)
	}
	if got := h.PhysDownMinutes(link); got != 45 {
		t.Fatalf("PhysDownMinutes = %v, want 45", got)
	}
}

// A flap sequence crossing the damping suppress threshold produces
// emergent unreachability: the route stays suppressed long after the
// link is physically healthy.
func TestFlapStormCrossesSuppressThreshold(t *testing.T) {
	topo, links := testTopo(t)
	link := links["eye"]
	// Five 2-minute outages spaced 2 minutes apart: every one is
	// detected (120s >> 36s) and the penalty crosses 2000 on the third
	// flap (1000 -> ~1830 -> ~2520 with the 15-min half-life).
	var evs [][3]float64
	for i := 0; i < 5; i++ {
		evs = append(evs, [3]float64{float64(link), 10 + 4*float64(i), 2})
	}
	tl := timeline(t, topo, evs)
	h, err := Replay(tl, nil, Config{}, 42, 400)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Flaps(link); got != 5 {
		t.Fatalf("flaps = %d, want 5", got)
	}
	outs := outagesOf(h, link)
	if len(outs) == 0 {
		t.Fatal("no outages")
	}
	last := outs[len(outs)-1]
	if !last.Suppressed {
		t.Fatalf("final episode %+v not suppressed", last)
	}
	if sup := h.Suppressed(link); len(sup) == 0 {
		t.Fatal("no suppression span recorded")
	}
	swu := h.SuppressedWhileUpMinutes(link)
	if swu < 10 {
		t.Fatalf("SuppressedWhileUpMinutes = %v, want well over the physical downtime", swu)
	}
	// The suppression tail dominates the 10 physical down minutes.
	if un := h.UnusableMinutes(link); un < 30 {
		t.Fatalf("UnusableMinutes = %v, want dominated by suppression", un)
	}
	// With damping disabled the same storm causes no suppression and far
	// less unusable time.
	free, err := Replay(tl, nil, Config{DisableDamping: true}, 42, 400)
	if err != nil {
		t.Fatal(err)
	}
	if got := free.SuppressedWhileUpMinutes(link); got != 0 {
		t.Fatalf("damping disabled but SuppressedWhileUp = %v", got)
	}
	if free.UnusableMinutes(link) >= h.UnusableMinutes(link) {
		t.Fatalf("damping off (%v min) should be cheaper than on (%v min)",
			free.UnusableMinutes(link), h.UnusableMinutes(link))
	}
}

func TestReplayDeterministicAndSeedSensitive(t *testing.T) {
	topo, links := testTopo(t)
	link := links["eye"]
	tl := timeline(t, topo, [][3]float64{
		{float64(link), 10, 10},
		{float64(links["trab"]), 30, 5},
	})
	a, err := Replay(tl, nil, Config{}, 42, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(tl, nil, Config{}, 42, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range a.Links() {
		if !reflect.DeepEqual(outagesOf(a, l), outagesOf(b, l)) {
			t.Fatalf("link %d outages differ across identical replays", l)
		}
		if !reflect.DeepEqual(transitionsOf(a, l), transitionsOf(b, l)) {
			t.Fatalf("link %d transitions differ across identical replays", l)
		}
	}
	// A different seed shifts the keepalive phase, so detection lands at
	// a different instant.
	c, err := Replay(tl, nil, Config{}, 1042, 200)
	if err != nil {
		t.Fatal(err)
	}
	if outagesOf(a, link)[0].DetectAt == outagesOf(c, link)[0].DetectAt {
		t.Fatal("different seeds produced identical detection instants")
	}
	// Replaying an explicit subset matches the full replay on that link.
	sub, err := Replay(tl, []int{link}, Config{}, 42, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outagesOf(sub, link), outagesOf(a, link)) {
		t.Fatal("subset replay differs from full replay")
	}
}

// TestBoundariesIncludeSessionEdges: the compiled sequence changes epoch
// where the link stops carrying routes (the fault onset) and where the
// session re-advertises (UsableAt), not at the physical end the
// control-plane tail covers.
func TestBoundariesIncludeSessionEdges(t *testing.T) {
	topo, links := testTopo(t)
	link := links["eye"]
	tl := timeline(t, topo, [][3]float64{{float64(link), 10, 10}})
	h, err := Replay(tl, nil, Config{}, 42, 200)
	if err != nil {
		t.Fatal(err)
	}
	o := outagesOf(h, link)[0]
	if o.UsableAt <= 20 {
		t.Fatalf("outage %+v has no control-plane tail", o)
	}
	seq, err := h.Deltas(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	var starts []float64
	for i := 0; i < seq.Len(); i++ {
		starts = append(starts, seq.Epoch(i).Start)
	}
	if want := []float64{0, 10, o.UsableAt}; !reflect.DeepEqual(starts, want) {
		t.Fatalf("epoch starts = %v, want %v", starts, want)
	}
}

func TestDeltasMatchLinkDownAt(t *testing.T) {
	topo, links := testTopo(t)
	eye, stub := links["eye"], links["stub"]
	// A flap storm on eye (damping tails), overlapping faults on stub.
	evs := [][3]float64{
		{float64(stub), 10, 15}, {float64(stub), 20, 10},
	}
	for i := 0; i < 6; i++ {
		evs = append(evs, [3]float64{float64(eye), 40 + 14*float64(i), 7})
	}
	tl := timeline(t, topo, evs)
	h, err := Replay(tl, nil, Config{}, 42, 300)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := h.Deltas(0, 300)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() < 4 {
		t.Fatalf("only %d epochs for a schedule with session tails", seq.Len())
	}
	// The compiled sequence and the window scan must agree everywhere.
	checkSeqAgainstScan(t, h, seq, []int{eye, stub, links["trab"]})
	// The session layer's tail must be visible as epochs: the link stays
	// down past the physical end (minute 30) of its merged stub fault,
	// until the route is re-advertised at UsableAt.
	o, ok := h.outageAt(stub, 29)
	if !ok || o.UsableAt <= 30 {
		t.Fatalf("expected a detected stub outage with a tail, got %+v ok=%v", o, ok)
	}
	if !seq.LinkDownAt(stub, (30+o.UsableAt)/2) {
		t.Error("control-plane tail after the physical window not in the sequence")
	}
	// Event stream is time-ordered and alternates down/up per link.
	events := h.Events()
	state := map[int]bool{}
	for i, e := range events {
		if i > 0 && e.At < events[i-1].At {
			t.Fatalf("event %d out of order: %v after %v", i, e, events[i-1])
		}
		if state[e.Link] == e.Down {
			t.Fatalf("event %d (%v) does not alternate", i, e)
		}
		state[e.Link] = e.Down
	}
	for l, down := range state {
		if down {
			t.Fatalf("link %d left down at stream end", l)
		}
	}
}

// scanDown is the tests' independent answer to "is link l down at minute
// t": a linear scan of the link's merged physical windows and its
// control-plane-down spans.
func scanDown(h *History, l int, t float64) bool {
	for _, ws := range [][]faults.Window{h.tl.DownWindows(l), h.CtlDown(l)} {
		for _, w := range ws {
			if w.Start <= t && t < w.End {
				return true
			}
		}
	}
	return false
}

// checkSeqAgainstScan asserts seq.LinkDownAt == scanDown for every given
// link at every epoch start and every window edge, 1e-6 either side of
// each, and the midpoint between consecutive instants — every instant
// inside the sequence's span where either answer could change, and one
// point inside every span where neither should.
func checkSeqAgainstScan(t testing.TB, h *History, seq *delta.Sequence, links []int) {
	t.Helper()
	edges := []float64{seq.Start(), seq.End()}
	for i := 0; i < seq.Len(); i++ {
		edges = append(edges, seq.Epoch(i).Start)
	}
	for _, l := range links {
		for _, ws := range [][]faults.Window{h.tl.DownWindows(l), h.CtlDown(l)} {
			for _, w := range ws {
				edges = append(edges, w.Start, w.End)
			}
		}
	}
	sort.Float64s(edges)
	for i, b := range edges {
		probes := []float64{b, b - 1e-6, b + 1e-6}
		if i+1 < len(edges) {
			probes = append(probes, (b+edges[i+1])/2)
		}
		for _, at := range probes {
			if at < seq.Start() || at >= seq.End() {
				continue
			}
			for _, l := range links {
				if got, want := seq.LinkDownAt(l, at), scanDown(h, l, at); got != want {
					t.Fatalf("link %d at %v: sequence says down=%v, window scan says %v", l, at, got, want)
				}
			}
		}
	}
}

// outagesOf returns the link's outage episodes in start order; nil for a
// link that was never replayed.
func outagesOf(h *History, link int) []outage {
	if lh := h.perLink[link]; lh != nil {
		return lh.outages
	}
	return nil
}

// transitionsOf returns the link's recorded FSM state changes in time
// order.
func transitionsOf(h *History, link int) []transition {
	if lh := h.perLink[link]; lh != nil {
		return lh.transitions
	}
	return nil
}
