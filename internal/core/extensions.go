package core

import (
	"context"
	"fmt"
	"math"

	"beatbgp/internal/cdn"
	"beatbgp/internal/geo"
	"beatbgp/internal/netsim"
	"beatbgp/internal/provider"
	"beatbgp/internal/stats"
)

// peeringReduction explores §3.1.3: what happens to latency and route
// diversity as the provider drastically reduces its peering footprint?
// Each kept-peer fraction is a Provider-only Derive of the base scenario
// (the shared topology is built once); everything else (seeds, workload)
// is held fixed.
func peeringReduction(ctx context.Context, s *Scenario) (Result, error) {
	fractions := []float64{1.0, 0.7, 0.4, 0.1}
	tb := stats.Table{Name: "peering reduction sweep", Columns: []string{
		"median_pref_rtt_ms", "frac_prefixes_ge3_routes", "frac_traffic_transit_only", "peer_links"}}
	for _, frac := range fractions {
		sub, err := s.Derive(ctx, func(c *Config) {
			c.Provider.PeerKeepFraction = frac
			c.Workload.Days = 2 // latency statistics settle quickly
		})
		if err != nil {
			return Result{}, err
		}
		traces, err := sub.efTraces()
		if err != nil {
			return Result{}, fmt.Errorf("core: keep=%.1f: %w", frac, err)
		}
		var rtt stats.Dist
		var ge3, transitOnly, totalVol float64
		for _, tr := range traces {
			var vol float64
			for _, w := range tr.Windows {
				rtt.Add(w.MedianMinRTTMs[0], w.VolumeBytes)
				vol += w.VolumeBytes
			}
			totalVol += vol
			if len(tr.Routes) >= 3 {
				ge3 += vol
			}
			allTransit := true
			for _, ro := range tr.Routes {
				if ro.Option.Class != provider.ClassTransit {
					allTransit = false
					break
				}
			}
			if allTransit {
				transitOnly += vol
			}
		}
		peers := float64(len(sub.Prov.PeerLinks(provider.ClassPNI)) +
			len(sub.Prov.PeerLinks(provider.ClassPublicPeer)))
		tb.AddRow(fmt.Sprintf("keep_%.0f%%", frac*100),
			rtt.Median(), ge3/totalVol, transitOnly/totalVol, peers)
	}
	res := Result{ID: "xpeer", Title: "Reduced peering footprint"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"paper's hypothesis: latency barely moves because less-preferred paths perform like preferred ones, but diversity (and with it resilience and capacity headroom) erodes")
	return res, nil
}

// groomingStudy explores §3.2.2 (nature vs nurture): how much does
// manual anycast grooming — AS-path prepending at sites that attract
// distant traffic — improve an ungroomed anycast prefix?
func groomingStudy(s *Scenario) (Result, error) {
	times := []float64{9 * 60, 21 * 60}
	evalCfg := func(g *cdn.Grooming) (median, p95, ge100 float64, err error) {
		rib, err := s.CDN.AnycastRIB(g)
		if err != nil {
			return 0, 0, 0, err
		}
		var diff stats.Dist
		for _, p := range s.Topo.Prefixes {
			// The forwarding walk and path resolution are time-independent:
			// resolve once per prefix, then sample the simulator per time.
			phys, _, err := s.CDN.PhysViaRIB(rib, p)
			if err != nil {
				continue
			}
			nearest := s.CDN.NearestSites(p, nearbyUnicastCount)
			for _, t := range times {
				any := s.Sim.RouteRTTMs(phys, p, t) + s.CDN.ServerMs
				best := math.Inf(1)
				for _, site := range nearest {
					if rtt, err := s.CDN.UnicastRTT(s.Sim, p, site, t); err == nil && rtt < best {
						best = rtt
					}
				}
				if !math.IsInf(best, 1) {
					diff.Add(any-best, p.Weight)
				}
			}
		}
		return diff.Median(), diff.Quantile(0.95), diff.FracAtLeast(100), nil
	}
	score := func(g *cdn.Grooming) (float64, error) {
		_, p95, _, err := evalCfg(g)
		return p95, err
	}

	med0, p950, tail0, err := evalCfg(nil)
	if err != nil {
		return Result{}, err
	}
	// Greedy grooming: two passes over sites, trying 1 and 2 prepends.
	best := &cdn.Grooming{Prepend: map[int]int{}}
	bestScore, err := score(best)
	if err != nil {
		return Result{}, err
	}
	actions := 0
	for round := 0; round < 2; round++ {
		for site := range s.CDN.Sites {
			cur := best.Prepend[site]
			improvedSite := false
			for _, k := range []int{1, 2} {
				trial := &cdn.Grooming{Prepend: map[int]int{}}
				for k2, v := range best.Prepend {
					trial.Prepend[k2] = v
				}
				trial.Prepend[site] = cur + k
				sc, err := score(trial)
				if err != nil {
					return Result{}, err
				}
				if sc < bestScore-0.5 {
					best, bestScore = trial, sc
					improvedSite = true
				}
			}
			if improvedSite {
				actions++
			}
		}
	}
	med1, p951, tail1, err := evalCfg(best)
	if err != nil {
		return Result{}, err
	}
	tb := stats.Table{Name: "anycast grooming (anycast - best unicast, ms)",
		Columns: []string{"median", "p95", "frac_ge_100ms"}}
	tb.AddRow("ungroomed", med0, p950, tail0)
	tb.AddRow("groomed", med1, p951, tail1)
	sum := stats.Table{Name: "grooming actions", Columns: []string{"value"}}
	sum.AddRow("prepend_actions_applied", float64(actions))
	res := Result{ID: "xgroom", Title: "Nature vs nurture: grooming an anycast prefix"}
	res.Tables = append(res.Tables, tb, sum)
	res.Notes = append(res.Notes,
		"grooming at human timescales (prepending at sites that attract distant traffic) trims the catchment tail; the median barely moves — the 'nature' of the footprint sets it")
	return res, nil
}

// singleWANStudy explores §3.3.2: do public BGP routes perform like the
// private WAN precisely when they spend most of their journey inside one
// large network?
func singleWANStudy(s *Scenario) (Result, error) {
	ts, err := s.tiers()
	if err != nil {
		return Result{}, err
	}
	type bucket struct {
		lo, hi float64
		diff   stats.Dist
	}
	buckets := []*bucket{
		{lo: 0, hi: 0.5}, {lo: 0.5, hi: 0.75}, {lo: 0.75, hi: 0.9}, {lo: 0.9, hi: 1.01},
	}
	for i, vp := range ts.vps {
		public, err := ts.std.Route(vp)
		if err != nil || public.Km <= 0 {
			continue
		}
		maxHop := 0.0
		for _, h := range public.Hops {
			if h.Km > maxHop {
				maxHop = h.Km
			}
		}
		frac := maxHop / public.Km
		t := float64(i%24) * 60
		p1, e1 := ts.plat.Ping(vp, ts.prem, t)
		p2, e2 := ts.plat.Ping(vp, ts.std, t)
		if e1 != nil || e2 != nil {
			continue
		}
		for _, b := range buckets {
			if frac >= b.lo && frac < b.hi {
				b.diff.Add(p2-p1, 1)
			}
		}
	}
	tb := stats.Table{Name: "single-WAN carriage vs tier gap",
		Columns: []string{"median_std_minus_prem_ms", "n"}}
	for _, b := range buckets {
		tb.AddRow(fmt.Sprintf("carry_frac_%.2f-%.2f", b.lo, b.hi), b.diff.Median(), float64(b.diff.N()))
	}
	res := Result{ID: "xwan", Title: "Single-WAN behavior of public routes"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"hypothesis: the more of the journey one network carries, the closer the public route gets to the private WAN")
	return res, nil
}

// splitTCPStudy explores §4's split-connection question: how does the
// latency benefit of terminating TCP at the edge change when the backend
// runs over the private WAN versus the public Internet?
func splitTCPStudy(s *Scenario) (Result, error) {
	ts, err := s.tiers()
	if err != nil {
		return Result{}, err
	}
	const payload = 2e6
	const wanLoss, publicLoss = 0.0003, 0.004
	// Public backend: same geography as the WAN but with typical transit
	// stretch and loss — the pre-WAN-buildout overlay of §4.
	const publicStretch = 1.22
	type bucket struct {
		lo, hi                 float64
		direct, splitW, splitP stats.Dist
	}
	buckets := []*bucket{
		{lo: 0, hi: 2000}, {lo: 2000, hi: 6000}, {lo: 6000, hi: 12000}, {lo: 12000, hi: 1e9},
	}
	dcLoc := s.Topo.Catalog.City(s.Prov.DC).Loc
	for i, vp := range ts.vps {
		public, err := ts.prem.Route(vp)
		if err != nil {
			continue
		}
		t := float64(i%24) * 60
		rtt1 := s.Sim.RouteRTTMs(public, vp.Prefix, t) // client to edge PoP
		wanKm := ts.prem.ExtraRTTMs(vp) / geo.FiberRTTMsPerKm
		rtt2w := wanKm * geo.FiberRTTMsPerKm
		rtt2p := rtt2w * publicStretch
		loss1 := s.Sim.LossRate(public, vp.Prefix, t)

		direct := fetchDirectMs(payload, rtt1, loss1, rtt2p, publicLoss)
		splitWAN := fetchSplitMs(payload, rtt1, loss1, rtt2w, wanLoss)
		splitPub := fetchSplitMs(payload, rtt1, loss1, rtt2p, publicLoss)

		d := geo.DistanceKm(s.Topo.Catalog.City(vp.City).Loc, dcLoc)
		for _, b := range buckets {
			if d >= b.lo && d < b.hi {
				b.direct.Add(direct, 1)
				b.splitW.Add(splitWAN, 1)
				b.splitP.Add(splitPub, 1)
			}
		}
	}
	tb := stats.Table{Name: "2MB fetch time by client-DC distance (ms)",
		Columns: []string{"direct", "split_public_backend", "split_wan_backend", "n"}}
	for _, b := range buckets {
		tb.AddRow(fmt.Sprintf("km_%.0f-%.0f", b.lo, math.Min(b.hi, 99999)),
			b.direct.Median(), b.splitP.Median(), b.splitW.Median(), float64(b.direct.N()))
	}
	res := Result{ID: "xsplit", Title: "Split TCP with WAN vs public backend"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"splitting helps more with distance; a WAN backend (lower loss, lower stretch) compounds the benefit")
	return res, nil
}

// routeDiversityStudy explores §4's availability discussion: route
// diversity as failover insurance, and the outsized fragility of small
// peers whose capacity concentrates on a single interconnection.
// (Scheduled fault injection lives in anycastFaultAvailability/xavail.)
func routeDiversityStudy(s *Scenario) (Result, error) {
	traces, err := s.efTraces()
	if err != nil {
		return Result{}, err
	}
	// Two failure processes over the same world: baseline, and one where
	// PNI links fail 5x as often (fragile small peers). Each arm gets its
	// own Sim, leaving s.Sim untouched for other experiments.
	fragile := make(map[int]float64)
	for _, l := range s.Prov.PeerLinks(provider.ClassPNI) {
		fragile[l] = 5
	}
	simA := netsim.New(s.Topo, s.Cfg.Net, nil, nil, nil)
	simB := netsim.New(s.Topo, s.Cfg.Net, nil, nil, fragile)
	horizonDays := 10
	evalSim := func(sim *netsim.Sim) (prefAvail, anyAvail float64) {
		var pref, any stats.Dist
		for _, tr := range traces {
			var vol float64
			for _, w := range tr.Windows {
				vol += w.VolumeBytes
			}
			upPref, upAny, n := 0, 0, 0
			for hour := 0; hour < horizonDays*24; hour += 3 {
				t := float64(hour) * 60
				n++
				if sim.RouteUp(tr.Routes[0].Phys, t) {
					upPref++
					upAny++
					continue
				}
				for _, ro := range tr.Routes[1:] {
					if sim.RouteUp(ro.Phys, t) {
						upAny++
						break
					}
				}
			}
			pref.Add(float64(upPref)/float64(n), vol)
			any.Add(float64(upAny)/float64(n), vol)
		}
		return pref.Mean(), any.Mean()
	}
	prefA, anyA := evalSim(simA)
	prefB, anyB := evalSim(simB)
	tb := stats.Table{Name: "egress availability (weighted mean uptime)",
		Columns: []string{"preferred_route_only", "with_failover"}}
	tb.AddRow("baseline_failures", prefA, anyA)
	tb.AddRow("fragile_small_peers_5x", prefB, anyB)
	res := Result{ID: "xdiv", Title: "Route diversity as failover insurance"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"route diversity buys availability even when it buys no latency; fragile peers erode the preferred-route uptime far more than the failover uptime")
	return res, nil
}
