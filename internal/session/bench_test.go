package session

import (
	"testing"

	"beatbgp/internal/faults"
	"beatbgp/internal/xrand"
)

// benchTimeline builds a dense synthetic fault schedule: `events`
// outages spread across the test topology's links over a 10-day
// horizon, with durations from a minute to a few hours.
func benchTimeline(tb testing.TB, events int) (*faults.Timeline, float64) {
	tb.Helper()
	topo, links := testTopo(tb)
	ids := []int{links["trab"], links["eye"], links["stub"]}
	rng := xrand.New(99)
	const horizon = 10 * 24 * 60.0
	var evs []faults.Event
	for i := 0; i < events; i++ {
		evs = append(evs, faults.Event{
			Kind:     faults.LinkDown,
			Target:   ids[rng.Intn(len(ids))],
			Start:    rng.Uniform(0, horizon-300),
			Duration: rng.Uniform(1, 240),
		})
	}
	tl, err := faults.New(topo, evs)
	if err != nil {
		tb.Fatal(err)
	}
	return tl, horizon
}

func BenchmarkSessionReplay(b *testing.B) {
	tl, horizon := benchTimeline(b, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(tl, nil, Config{}, 42, horizon); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionReplayBFD(b *testing.B) {
	tl, horizon := benchTimeline(b, 60)
	cfg := Config{BFD: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(tl, nil, cfg, 42, horizon); err != nil {
			b.Fatal(err)
		}
	}
}

// flapStorm builds a burst of 14 short flaps on the "eye" link, 1.5
// minutes down every 3 minutes, and returns the timeline and the link.
func flapStorm(tb testing.TB) (*faults.Timeline, int) {
	tb.Helper()
	topo, links := testTopo(tb)
	link := links["eye"]
	var evs []faults.Event
	for i := 0; i < 14; i++ {
		evs = append(evs, faults.Event{
			Kind: faults.LinkDown, Target: link,
			Start: 10 + 3*float64(i), Duration: 1.5,
		})
	}
	tl, err := faults.New(topo, evs)
	if err != nil {
		tb.Fatal(err)
	}
	return tl, link
}

// BenchmarkSessionFlapStorm stresses the damping/suppression path: a
// burst of short flaps on one link.
func BenchmarkSessionFlapStorm(b *testing.B) {
	tl, link := flapStorm(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := Replay(tl, nil, Config{}, 42, 24*60)
		if err != nil {
			b.Fatal(err)
		}
		if h.Flaps(link) == 0 {
			b.Fatal("storm produced no flaps")
		}
	}
}
