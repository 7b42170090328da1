package session

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"beatbgp/internal/faults"
	"beatbgp/internal/xrand"
)

// TestReplayDigestPinned pins every bit the replay produces — each
// outage field, the control-plane and suppression spans, the FSM
// transitions and the flap counts — for a dense ten-day schedule, a
// damping flap storm and a run of blips shorter than the hold window,
// under six timer/BFD/damping configurations. The campaign goldens see
// only rounded tables; this digest moves if any replayed float moves by
// one ulp.
func TestReplayDigestPinned(t *testing.T) {
	const want = "c2f8a920f57c61c6ea71f6abbfc9342215eb52e4c5b00166fcdf93fcec82e4e1"
	dense, denseHorizon := benchTimeline(t, 200)
	storm, _ := flapStorm(t)
	topo, links := testTopo(t)
	rng := xrand.New(7)
	var blips [][3]float64
	for i := 0; i < 60; i++ {
		blips = append(blips, [3]float64{float64(links["eye"]), rng.Uniform(0, 290), rng.Uniform(0.005, 1)})
	}
	configs := []Config{
		{},
		{HoldSec: 90, KeepaliveSec: 30},
		{HoldSec: 9, KeepaliveSec: 3},
		{BFD: true},
		{BFD: true, BFDIntervalMs: 50},
		{DisableDamping: true},
	}
	d := sha256.New()
	for _, in := range []struct {
		tl      *faults.Timeline
		horizon float64
	}{{dense, denseHorizon}, {storm, 24 * 60}, {timeline(t, topo, blips), 300}} {
		for _, cfg := range configs {
			h, err := Replay(in.tl, nil, cfg, 42, in.horizon)
			if err != nil {
				t.Fatal(err)
			}
			digestHistory(d, h)
		}
	}
	if got := hex.EncodeToString(d.Sum(nil)); got != want {
		t.Fatalf("replay digest %s, want %s", got, want)
	}
}

// digestHistory writes every replayed field of h into d. The detector
// goes in as one BFD-or-hold bit and FSM states and events by name, so
// the digest pins behaviour, not representation.
func digestHistory(d hash.Hash, h *History) {
	f := func(v float64) { binary.Write(d, binary.LittleEndian, math.Float64bits(v)) }
	n := func(v int) { binary.Write(d, binary.LittleEndian, int64(v)) }
	b := func(v bool) {
		if v {
			n(1)
		} else {
			n(0)
		}
	}
	for _, l := range h.Links() {
		n(l)
		n(h.Flaps(l))
		lh := h.perLink[l]
		n(len(lh.outages))
		for _, o := range lh.outages {
			n(o.Link)
			f(o.Start)
			f(o.End)
			b(o.Detected)
			b(o.Detector == evLinkDown)
			f(o.DetectAt)
			f(o.UsableAt)
			n(o.Flaps)
			b(o.Suppressed)
		}
		for _, ws := range [][]faults.Window{lh.ctlDown, lh.suppressed} {
			n(len(ws))
			for _, w := range ws {
				f(w.Start)
				f(w.End)
			}
		}
		n(len(lh.transitions))
		for _, tr := range lh.transitions {
			n(tr.Link)
			f(tr.AtMin)
			d.Write([]byte(tr.From.String() + ">" + tr.To.String() + "@" + tr.Ev.String() + ";"))
		}
	}
}

// TestReplayAllocsFlatInDowntime: a session that stays down re-arms its
// connect retry every ConnectRetrySec, so a link down ten hours fires
// 1,200 retries where a link down ten minutes fires 20. The retries are
// heap values, so the replay's allocation count does not grow with them.
func TestReplayAllocsFlatInDowntime(t *testing.T) {
	topo, links := testTopo(t)
	link := float64(links["eye"])
	allocs := func(downMin float64) float64 {
		tl := timeline(t, topo, [][3]float64{{link, 10, downMin}})
		return testing.AllocsPerRun(20, func() {
			if _, err := Replay(tl, nil, Config{}, 42, 24*60); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(10), allocs(600); short != long {
		t.Fatalf("allocs per replay: %v for a 10-minute outage, %v for a 10-hour one", short, long)
	}
}
