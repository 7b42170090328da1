package core

import (
	"sort"

	"beatbgp/internal/faults"
	"beatbgp/internal/par"
	"beatbgp/internal/provider"
	"beatbgp/internal/session"
	"beatbgp/internal/stats"
	"beatbgp/internal/workload"
	"beatbgp/internal/xrand"
)

// detectSetting is one point in the detection-sensitivity sweep: a name
// for the table row and a full session configuration.
type detectSetting struct {
	name string
	cfg  session.Config
}

// detectionSettings spans the practical detection spectrum around the
// scenario's own session config: a sleepy 90 s hold timer, the default
// (36 s, calibrated to the closed-form base term), an aggressive 9 s
// hold, and two BFD points (the common 300 ms × 3 and a datacenter-grade
// 50 ms × 3). Everything else — MRAI, damping — stays at the base
// config, so the sweep isolates detection.
func detectionSettings(base session.Config) []detectSetting {
	slow := base
	slow.HoldSec, slow.KeepaliveSec = 90, 30
	fast := base
	fast.HoldSec, fast.KeepaliveSec = 9, 3
	bfd := base
	bfd.BFD = true
	bfdFast := bfd
	bfdFast.BFDIntervalMs = 50
	return []detectSetting{
		{"hold_90s", slow},
		{"hold_36s_default", base},
		{"hold_9s", fast},
		{"bfd_300ms_x3", bfd},
		{"bfd_50ms_x3", bfdFast},
	}
}

// sessionEventMetrics replays xfaults's part-2 blackhole accounting for
// one session history: per outage event, clients whose preferred route
// died are dark for the emergent downtime (detection + MRAI exploration,
// or the whole fault when the timers never saw it). Shared by the
// detection-sensitivity sweep so every setting is scored by exactly the
// rule xfaults uses for its bgp_session_timers row.
type sessionMetrics struct {
	down       stats.Dist // emergent downtime minutes, volume-weighted
	detectLat  stats.Dist // detection latency per detected (event, link)
	detected   int
	undetected int
}

func sessionEventMetrics(cfg session.Config, tl *faults.Timeline, hist *session.History,
	traces []workload.Trace, traceVol []float64) sessionMetrics {
	var m sessionMetrics
	for _, e := range tl.Events() {
		if e.Kind == faults.CongestionStorm || e.Kind == faults.LDNSStale {
			continue
		}
		downE := make(map[int]bool)
		affected := tl.AffectedLinks(e)
		for _, l := range affected {
			downE[l] = true
		}
		if len(downE) == 0 {
			continue
		}
		for _, l := range affected {
			if lat, ok := hist.DetectionLatencyMin(l, e.Start); ok {
				m.detected++
				m.detectLat.Add(lat, 1)
			} else {
				m.undetected++
			}
		}
		isDown := func(l int) bool { return downE[l] }
		for i, tr := range traces {
			opts := tr.Options()
			surviving := provider.SurvivingOptions(opts, isDown)
			if len(surviving) > 0 && surviving[0].Link == opts[0].Link {
				continue // preferred route survived this event
			}
			if len(surviving) == 0 {
				m.down.Add(e.Duration, traceVol[i])
				continue
			}
			m.down.Add(emergentDowntime(cfg, hist, opts[0], isDown, e, surviving[0].Route), traceVol[i])
		}
	}
	return m
}

// DetectionStudy sweeps the failure-detection axis: the same injected
// fault schedule as xfaults, replayed through the session layer once per
// timer setting, from a 90-second hold timer down to 50 ms BFD. The
// sweep runs on internal/par workers (one session replay per setting)
// and is bit-identical at any worker count: each setting's metrics are
// computed independently and the rows land in the fixed settings order.
func DetectionStudy(s *Scenario) (Result, error) {
	traces, err := s.efTraces()
	if err != nil {
		return Result{}, err
	}
	tl, err := egressFaultTimeline(s)
	if err != nil {
		return Result{}, err
	}
	traceVol := make([]float64, len(traces))
	for i, tr := range traces {
		for _, w := range tr.Windows {
			traceVol[i] += w.VolumeBytes
		}
	}
	settings := detectionSettings(s.Cfg.Session)
	metrics, err := par.Map(s.workers(), settings, func(_ int, st detectSetting) (sessionMetrics, error) {
		hist, err := sessionHistory(s, tl, st.cfg)
		if err != nil {
			return sessionMetrics{}, err
		}
		return sessionEventMetrics(st.cfg, tl, hist, traces, traceVol), nil
	})
	if err != nil {
		return Result{}, err
	}

	tb := stats.Table{Name: "blackhole minutes by detection setting",
		Columns: []string{"mean_downtime_min", "p90_downtime_min", "mean_detect_min", "frac_undetected"}}
	for i, st := range settings {
		m := metrics[i]
		tb.AddRow(st.name, distMean(m.down), distQ(m.down, 0.90), distMean(m.detectLat),
			frac(float64(m.undetected), float64(m.detected+m.undetected)))
	}
	res := Result{ID: "xdetect", Title: "Detection sensitivity: hold timers vs BFD under injected faults"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"detection latency scales with the hold timer (mean ≈ hold − keepalive/2) until BFD decouples it from the keepalive cadence entirely",
		"faster detection shrinks the blackhole's detection term but not its MRAI exploration term — sub-second BFD still leaves a multi-second outage floor, which is §4's argument that beating BGP needs more than better timers")
	return res, nil
}

// Flap-storm model constants. Down spells always exceed the default
// 36-second hold timer, so every flap is detected; gaps are short enough
// that the damping penalty (1000 per flap, 15-minute half-life) crosses
// the 2000 suppress threshold around the third flap.
const (
	flapStormLinks   = 4    // top egress links by traced volume
	flapStormMinN    = 8    // flaps per link: minN + rng.Intn(spread)
	flapStormSpread  = 7    //   → 8..14
	flapStormDownLo  = 0.75 // minutes down per flap (45 s .. 3 min)
	flapStormDownHi  = 3.0
	flapStormGapLo   = 0.5 // minutes up between flaps
	flapStormGapHi   = 5.0
	flapStormStartLo = 60.0 // first flap lands in minute 60..180
)

// flapStormTimeline builds the deterministic storm: the top egress links
// by traced volume each take a burst of short link-down/up cycles, drawn
// from a per-link keyed RNG stream so the schedule is independent of
// link-set enumeration order.
func flapStormTimeline(s *Scenario, traces []workload.Trace, traceVol []float64) (*faults.Timeline, []int, error) {
	linkVol := make(map[int]float64)
	for i, tr := range traces {
		linkVol[tr.Routes[0].Option.Link] += traceVol[i]
	}
	type lv struct {
		link int
		vol  float64
	}
	ranked := make([]lv, 0, len(linkVol))
	for l, v := range linkVol {
		ranked = append(ranked, lv{l, v})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].vol != ranked[j].vol {
			return ranked[i].vol > ranked[j].vol
		}
		return ranked[i].link < ranked[j].link
	})
	n := flapStormLinks
	if n > len(ranked) {
		n = len(ranked)
	}
	var events []faults.Event
	links := make([]int, 0, n)
	for _, r := range ranked[:n] {
		links = append(links, r.link)
		rng := xrand.Derive(s.Cfg.Net.Seed, 0xF1A9, uint64(r.link))
		t := flapStormStartLo + rng.Uniform(0, 2*flapStormStartLo)
		flaps := flapStormMinN + rng.Intn(flapStormSpread)
		for k := 0; k < flaps; k++ {
			d := rng.Uniform(flapStormDownLo, flapStormDownHi)
			events = append(events, faults.Event{Kind: faults.LinkDown, Target: r.link, Start: t, Duration: d})
			t += d + rng.Uniform(flapStormGapLo, flapStormGapHi)
		}
	}
	sort.Ints(links)
	tl, err := faults.New(s.Topo, events)
	if err != nil {
		return nil, nil, err
	}
	return tl, links, nil
}

// FlapStormStudy injects bursts of short link flaps on the provider's
// busiest egress links and measures what route-flap damping does to
// them: each flap is physically brief, but once the penalty crosses the
// suppress threshold the route stays withdrawn long after the link is
// healthy — emergent unreachability the fault schedule never contains.
// Rows compare damping on, damping on with BFD fast detection, and
// damping off, over the identical storm.
func FlapStormStudy(s *Scenario) (Result, error) {
	traces, err := s.efTraces()
	if err != nil {
		return Result{}, err
	}
	traceVol := make([]float64, len(traces))
	for i, tr := range traces {
		for _, w := range tr.Windows {
			traceVol[i] += w.VolumeBytes
		}
	}
	tl, stormLinks, err := flapStormTimeline(s, traces, traceVol)
	if err != nil {
		return Result{}, err
	}

	on := s.Cfg.Session
	on.DisableDamping = false
	onBFD := on
	onBFD.BFD = true
	off := on
	off.DisableDamping = true
	variants := []detectSetting{
		{"damping_on", on},
		{"damping_on_bfd", onBFD},
		{"damping_off", off},
	}
	type stormRow struct {
		flaps                 int
		phys, unusable, supUp float64
	}
	rows, err := par.Map(s.workers(), variants, func(_ int, v detectSetting) (stormRow, error) {
		hist, err := sessionHistory(s, tl, v.cfg)
		if err != nil {
			return stormRow{}, err
		}
		var r stormRow
		for _, l := range stormLinks {
			r.flaps += hist.Flaps(l)
			r.phys += hist.PhysDownMinutes(l)
			r.unusable += hist.UnusableMinutes(l)
			r.supUp += hist.SuppressedWhileUpMinutes(l)
		}
		return r, nil
	})
	if err != nil {
		return Result{}, err
	}

	tb := stats.Table{Name: "flap storm on the busiest egress links",
		Columns: []string{"flaps", "phys_down_min", "unusable_min", "suppressed_while_up_min", "amplification"}}
	for i, v := range variants {
		r := rows[i]
		tb.AddRow(v.name, float64(r.flaps), r.phys, r.unusable, r.supUp, frac(r.unusable, r.phys))
	}
	scope := stats.Table{Name: "storm scope", Columns: []string{"value"}}
	scope.AddRow("storm_links", float64(len(stormLinks)))
	scope.AddRow("storm_events", float64(len(tl.Events())))

	res := Result{ID: "xflap", Title: "Flap storms: route damping and emergent unreachability"}
	res.Tables = append(res.Tables, tb, scope)
	res.Notes = append(res.Notes,
		"with damping on, minutes of physical downtime amplify into a multiple of route-unusable minutes — most of it suppression while the link is healthy",
		"BFD detects each flap faster but cannot reduce the flap count, so the damping penalty — and the suppression window — survives fast detection",
		"turning damping off removes the suppression penalty entirely; the operator's trade is storm-amplified churn against emergent unreachability")
	return res, nil
}
