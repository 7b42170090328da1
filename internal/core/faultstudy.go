package core

import (
	"math"
	"sort"

	"beatbgp/internal/bgp"
	"beatbgp/internal/cdn"
	"beatbgp/internal/faults"
	"beatbgp/internal/netsim"
	"beatbgp/internal/par"
	"beatbgp/internal/provider"
	"beatbgp/internal/session"
	"beatbgp/internal/stats"
)

// Fault-study model constants (minutes / milliseconds).
const (
	faultHorizonMin = 10 * 24 * 60.0 // the §3.1 trace window
	efDetectMin     = 1.0            // Edge-Fabric detection + override latency
	faultDegradeMs  = 5.0            // degradation threshold for correlation
)

// FaultStudy injects a deterministic schedule of cable cuts, session
// resets, AS outages, and congestion storms on top of the stochastic world
// and asks the paper's §3.1.1 question under duress: when an injected
// fault degrades the BGP-preferred egress route, do the alternates degrade
// with it? It also replays each outage through bgp.ConvergenceMinutes to
// measure blackhole windows, compares plain-BGP reconvergence against an
// Edge-Fabric-style controller that shifts to a surviving option, and runs
// the capacity controller during faults to price the spillover.
func FaultStudy(s *Scenario) (Result, error) {
	traces, err := s.efTraces()
	if err != nil {
		return Result{}, err
	}
	// The fault pipeline — schedule, session replay, compiled epoch
	// sequence — is built once per scenario (see faultEpochs). The replay
	// gives the faulty twin the EMERGENT overlay — a link is unusable
	// while physically down or while its route is withdrawn/suppressed —
	// rather than instantaneous fault edges.
	fe, err := s.faultEpochs()
	if err != nil {
		return Result{}, err
	}
	tl, hist := fe.tl, fe.hist
	// Twin simulators over identical stochastic draws; only one carries the
	// injected faults, so their difference isolates the injection.
	clean := netsim.New(s.Topo, s.Cfg.Net, nil, nil)
	faulty := netsim.New(s.Topo, s.Cfg.Net, hist, nil)

	traceVol := make([]float64, len(traces))
	for i, tr := range traces {
		for _, w := range tr.Windows {
			traceVol[i] += w.VolumeBytes
		}
	}

	// Part 1 — shared-fate correlation at fault midpoints: does the best
	// alternate degrade when the preferred route does?
	//
	// The sweep fans out per fault event on internal/par workers: each
	// worker carries its own twin ⟨clean, faulty⟩ Sim clones (identical
	// stochastic draws — netsim processes are keyed by entity, never by
	// query order), and each event's per-trace records are replayed into
	// the accumulators in ⟨event, trace⟩ order — exactly the serial
	// sequence, so the study is bit-identical at any worker count.
	// Parts 2 and 3 stay serial: AssignUnderCapacity iterates greedily
	// over the full demand set, a genuinely sequential dependency.
	type twin struct{ clean, faulty *netsim.Sim }
	type rec struct{ vol, d, alt float64 } // degraded entries; alt is +Inf when no alternate survives
	type evPart struct {
		sampled []float64 // traceVol of sampled traces, in trace order
		recs    []rec
	}
	parts, perr := par.MapState(s.workers(), tl.Events(),
		func(int) twin { return twin{clean.Clone(), faulty.Clone()} },
		func(tw twin, _ int, e faults.Event) (evPart, error) {
			var pt evPart
			tm := e.Start + e.Duration/2
			for i, tr := range traces {
				pref := tr.Routes[0]
				if !tw.faulty.RouteUp(pref.Phys, tm) {
					continue // unavailable, not slow — part 2's business
				}
				pt.sampled = append(pt.sampled, traceVol[i])
				d := tw.faulty.RouteRTTMs(pref.Phys, tr.Prefix, tm) -
					tw.clean.RouteRTTMs(pref.Phys, tr.Prefix, tm)
				bestAlt := math.Inf(1)
				for _, ro := range tr.Routes[1:] {
					if !tw.faulty.RouteUp(ro.Phys, tm) {
						continue
					}
					ad := tw.faulty.RouteRTTMs(ro.Phys, tr.Prefix, tm) -
						tw.clean.RouteRTTMs(ro.Phys, tr.Prefix, tm)
					if ad < bestAlt {
						bestAlt = ad
					}
				}
				if d < faultDegradeMs {
					continue
				}
				pt.recs = append(pt.recs, rec{traceVol[i], d, bestAlt})
			}
			return pt, nil
		})
	if perr != nil {
		return Result{}, perr
	}
	var prefDeg, altDeg stats.Dist
	var sampledVol, degradedVol, bothDegradedVol float64
	for _, pt := range parts {
		for _, v := range pt.sampled {
			sampledVol += v
		}
		for _, r := range pt.recs {
			degradedVol += r.vol
			prefDeg.Add(r.d, r.vol)
			if !math.IsInf(r.alt, 1) {
				altDeg.Add(r.alt, r.vol)
				if r.alt >= faultDegradeMs {
					bothDegradedVol += r.vol
				}
			}
		}
	}

	// Part 2 — blackhole windows: for every outage-class event, clients on
	// a killed route are dark until BGP reconverges to a surviving option
	// (or for the whole fault when nothing survives); the Edge-Fabric
	// override shifts them after a detection interval instead.
	// Part 3 — capacity spillover: rerun the capacity controller with the
	// dead links removed and price the detours it is forced into.
	meanDemand := make(map[int]float64)
	for i, tr := range traces {
		meanDemand[tr.Routes[0].Option.Link] += traceVol[i] / float64(len(tr.Windows))
	}
	caps, err := s.Prov.Provision(s.Cfg.Seed, meanDemand, 1.1, 3.0)
	if err != nil {
		return Result{}, err
	}

	var bgpDown, sessDown, efDown, spillPenalty stats.Dist
	var detectLat, baseDelta stats.Dist
	var detectedEvents, undetectedEvents int
	var affectedVol, eventVol, shiftedVol, spillVol float64
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
		// Per-(event, link) detection accounting for the differential
		// comparison against the closed form's base term.
		for _, l := range affected {
			if lat, ok := hist.DetectionLatencyMin(l, e.Start); ok {
				detectedEvents++
				detectLat.Add(lat, 1)
				baseDelta.Add(math.Abs(lat-s.Cfg.Convergence.BaseMin), 1)
			} else {
				undetectedEvents++
			}
		}
		isDown := func(l int) bool { return downE[l] }
		demands := make([]provider.Demand, len(traces))
		for i, tr := range traces {
			opts := tr.Options()
			surviving := provider.SurvivingOptions(opts, isDown)
			links := make([]int, len(surviving))
			for r, o := range surviving {
				links[r] = o.Link
			}
			mean := traceVol[i] / float64(len(tr.Windows))
			demands[i] = provider.Demand{Volume: mean, Links: links}
			spillVol += mean
			eventVol += traceVol[i]

			prefAlive := len(surviving) > 0 && surviving[0].Link == opts[0].Link
			if prefAlive {
				continue
			}
			affectedVol += traceVol[i]
			if len(surviving) == 0 {
				bgpDown.Add(e.Duration, traceVol[i])
				sessDown.Add(e.Duration, traceVol[i])
				efDown.Add(e.Duration, traceVol[i])
				continue
			}
			conv, ok := s.Cfg.Convergence.Minutes(opts[0].Route, surviving[0].Route)
			if !ok {
				conv = e.Duration
			}
			bgpDown.Add(math.Min(conv, e.Duration), traceVol[i])
			sessDown.Add(emergentDowntime(s.Cfg.Session, hist, opts[0], isDown, e, surviving[0].Route), traceVol[i])
			efDown.Add(math.Min(efDetectMin, e.Duration), traceVol[i])
		}
		choice, _ := provider.AssignUnderCapacity(demands, caps)
		load := make(map[int]float64)
		for k, d := range demands {
			if choice[k] < len(d.Links) && len(d.Links) > 0 {
				load[d.Links[choice[k]]] += d.Volume
			}
		}
		for k, d := range demands {
			if len(d.Links) == 0 {
				continue
			}
			chosen := d.Links[choice[k]]
			if chosen != traces[k].Routes[0].Option.Link {
				shiftedVol += d.Volume
			}
			if cap, ok := caps.PerLink[chosen]; ok && cap > 0 {
				if pen := provider.OverloadPenaltyMs(load[chosen] / cap); pen > 0 {
					spillPenalty.Add(pen, d.Volume)
				}
			}
		}
	}

	corr := stats.Table{Name: "degradation correlation under injected faults", Columns: []string{"value"}}
	corr.AddRow("frac_volume_pref_degraded", frac(degradedVol, sampledVol))
	corr.AddRow("frac_degraded_where_best_alt_degraded_too", frac(bothDegradedVol, degradedVol))
	corr.AddRow("median_pref_degradation_ms", distMedian(prefDeg))
	corr.AddRow("median_best_alt_degradation_ms", distMedian(altDeg))

	bh := stats.Table{Name: "blackhole minutes per outage per affected client-route",
		Columns: []string{"mean_downtime_min", "p90_downtime_min", "frac_volume_affected"}}
	bh.AddRow("bgp_convergence", distMean(bgpDown), distQ(bgpDown, 0.90), frac(affectedVol, eventVol))
	bh.AddRow("bgp_session_timers", distMean(sessDown), distQ(sessDown, 0.90), frac(affectedVol, eventVol))
	bh.AddRow("edge_fabric_override", distMean(efDown), distQ(efDown, 0.90), frac(affectedVol, eventVol))

	diff := stats.Table{Name: "session layer vs closed-form reference", Columns: []string{"value"}}
	diff.AddRow("mean_detect_latency_min", distMean(detectLat))
	diff.AddRow("mean_abs_base_delta_min", distMean(baseDelta))
	diff.AddRow("frac_event_links_undetected", frac(float64(undetectedEvents), float64(detectedEvents+undetectedEvents)))

	sp := stats.Table{Name: "capacity spillover during outages", Columns: []string{"value"}}
	sp.AddRow("frac_volume_shifted_off_preferred", frac(shiftedVol, spillVol))
	sp.AddRow("frac_volume_queueing", frac(spillPenalty.TotalWeight(), spillVol))
	sp.AddRow("queue_penalty_p90_ms", distQ(spillPenalty, 0.90))

	res := Result{ID: "xfaults", Title: "Injected faults: degradation correlation and blackhole windows"}
	res.Tables = append(res.Tables, corr, bh, diff, sp)
	res.Notes = append(res.Notes,
		"storms and cuts hit shared infrastructure, so when the preferred route degrades the best alternate usually degrades too — §3.1.1 survives fault injection",
		"an egress controller turns multi-minute convergence blackholes into a one-minute detection blip, but pays for it in capacity spillover",
		"bgp_session_timers makes detection and exploration emergent (hold timer + MRAI): it tracks the closed form within the keepalive-phase tolerance, but is NOT capped at the fault duration — restoring a route costs a reconnect handshake and an MRAI after the link heals")
	return res, nil
}

// egressFaultTimeline draws the deterministic fault schedule aimed at the
// provider's own egress links — faults on links no trace crosses teach
// nothing. (PeerLinks walks a map; sort so the candidate pool, and
// therefore the drawn schedule, is stable.) Shared by xfaults and the
// detection-sensitivity study so both ask their question on the same
// schedule.
func egressFaultTimeline(s *Scenario) (*faults.Timeline, error) {
	var egressLinks []int
	for _, class := range []provider.RouteClass{
		provider.ClassPNI, provider.ClassPublicPeer, provider.ClassTransit,
	} {
		egressLinks = append(egressLinks, s.Prov.PeerLinks(class)...)
	}
	sort.Ints(egressLinks)
	return faults.Generate(s.Topo, faults.GenConfig{
		Seed:           s.Cfg.Seed ^ 0x0F17,
		HorizonMinutes: faultHorizonMin,
		CableCuts:      2,
		LinkResets:     25,
		ASOutages:      2,
		Storms:         8,
		CandidateLinks: egressLinks,
	})
}

// sessionHistory replays a fault timeline through the session layer. The
// replay seed derives from the sim stage's seed (not Config.Seed, which
// is deliberately absent from the world key) so equal world keys imply
// equal histories.
func sessionHistory(s *Scenario, tl *faults.Timeline, cfg session.Config) (*session.History, error) {
	return session.Replay(tl, nil, cfg, s.Cfg.Net.Seed^0x5E55, faultHorizonMin)
}

// deadRouteLink returns the first faulted link along the preferred
// option's route: the egress peering itself, or a downstream hop whose
// failure killed the route remotely. That is the session adjacent to the
// failure — the one whose timers notice — and remote propagation back to
// the provider is what the MRAI exploration term already prices.
func deadRouteLink(pref provider.EgressOption, isDown func(int) bool) (int, bool) {
	if isDown(pref.Link) {
		return pref.Link, true
	}
	for _, l := range pref.Route.Links {
		if isDown(l) {
			return l, true
		}
	}
	return 0, false
}

// emergentDowntime is the session layer's answer to "how long is a client
// on the killed preferred route dark?": detection latency at the session
// adjacent to the failure, plus MRAI-paced exploration to the surviving
// route, or — whichever comes first — the original route usable again. A
// fault the timers never saw blackholes the client for the whole outage
// with no reroute at all.
func emergentDowntime(cfg session.Config, hist *session.History, pref provider.EgressOption,
	isDown func(int) bool, e faults.Event, newRoute bgp.Route) float64 {
	link, ok := deadRouteLink(pref, isDown)
	if !ok {
		return e.Duration
	}
	lat, detected := hist.DetectionLatencyMin(link, e.Start)
	if !detected {
		return e.Duration
	}
	down := lat + cfg.ExplorationMinutes(bgp.ExplorationHops(newRoute))
	if o, ok := hist.OutageAt(link, e.Start); ok {
		if restored := o.UsableAt - e.Start; restored > 0 && restored < down {
			down = restored
		}
	}
	return down
}

// frac is a/b guarding the empty denominator.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func distMean(d stats.Dist) float64 {
	if d.N() == 0 {
		return 0
	}
	return d.Mean()
}

func distMedian(d stats.Dist) float64 {
	if d.N() == 0 {
		return 0
	}
	return d.Median()
}

func distQ(d stats.Dist, q float64) float64 {
	if d.N() == 0 {
		return 0
	}
	return d.Quantile(q)
}

// AnycastFaultAvailability drives §4's availability comparison with the
// injected-fault engine: CDN sites are taken out by AS outages and cable
// cuts at their landing cities, and clients recover by anycast
// reconvergence or by DNS health-detection plus cache expiry. Planned
// events exercise the graceful path — the operator drains the site
// (withdraws its anycast announcement, repoints DNS) before the fault
// lands, so nobody goes dark — and LDNS-staleness windows show the
// DNS-redirection failure mode where the map cannot be rewritten at all.
func AnycastFaultAvailability(s *Scenario) (Result, error) {
	preRIB, err := s.CDN.AnycastRIB(nil)
	if err != nil {
		return Result{}, err
	}
	// Fault schedule aimed at the CDN: site ASes and the cable segments
	// landing at site cities.
	siteASes := make([]int, len(s.CDN.Sites))
	var siteEdges []int
	seenEdge := make(map[int]bool)
	for i, site := range s.CDN.Sites {
		siteASes[i] = site.AS.ID
		for _, e := range s.Topo.Graph.EdgesAt(site.City) {
			if !seenEdge[e] {
				seenEdge[e] = true
				siteEdges = append(siteEdges, e)
			}
		}
	}
	// Two batches — surprises and announced maintenance — merged into one
	// timeline, so both recovery paths are exercised whatever the seed.
	surprise, err := faults.Generate(s.Topo, faults.GenConfig{
		Seed:            s.Cfg.Seed ^ 0x0A7A,
		HorizonMinutes:  faultHorizonMin,
		ASOutages:       4,
		ASOutageMeanMin: 90,
		CableCuts:       2,
		StaleWindows:    2,
		CandidateASes:   siteASes,
		CandidateEdges:  siteEdges,
	})
	if err != nil {
		return Result{}, err
	}
	planned, err := faults.Generate(s.Topo, faults.GenConfig{
		Seed:            s.Cfg.Seed ^ 0x0A7B,
		HorizonMinutes:  faultHorizonMin,
		ASOutages:       2,
		ASOutageMeanMin: 90,
		CableCuts:       1,
		PlannedFraction: 1,
		CandidateASes:   siteASes,
		CandidateEdges:  siteEdges,
	})
	if err != nil {
		return Result{}, err
	}
	tl, err := faults.New(s.Topo, append(surprise.Events(), planned.Events()...))
	if err != nil {
		return Result{}, err
	}

	// The same LDNS-granularity redirector as xdyn.
	var trainTimes []float64
	for day := 0; day < 2; day++ {
		for _, h := range []float64{3, 10, 15, 21} {
			trainTimes = append(trainTimes, float64(day)*24*60+h*60)
		}
	}
	rd, err := cdn.TrainRedirector(s.CDN, s.Sim, s.DNS, s.Topo.Prefixes, trainTimes, cdn.TrainOpts{})
	if err != nil {
		return Result{}, err
	}

	// One repair chain serves every event: each event's post-fault RIB is
	// repaired from the previous event's state across the down-set diff
	// instead of rebuilt all-pairs — bit-identical to ComputeWithout by
	// the RouteRepairer contract.
	walker, err := newRepairWalker(s.Routes, s.CDN.Announcements(nil))
	if err != nil {
		return Result{}, err
	}
	var anyDown, anyDownPlanned, dnsDown, dnsDownPlanned stats.Dist
	var drainInflate stats.Dist
	var anyAff, anyAffP, dnsAff, dnsAffP, totalWeight float64
	for _, e := range tl.Events() {
		if e.Kind != faults.ASOutage && e.Kind != faults.CableCut {
			continue
		}
		downE := make(map[int]bool)
		for _, l := range tl.AffectedLinks(e) {
			downE[l] = true
		}
		if len(downE) == 0 {
			continue
		}
		postRIB, err := walker.At(downE)
		if err != nil {
			return Result{}, err
		}
		// Sites fully darkened by the event, for DNS pinning and drains.
		var dark []int
		darkSet := make(map[int]bool)
		for i, site := range s.CDN.Sites {
			nbs := s.Topo.Neighbors(site.AS.ID)
			if len(nbs) == 0 {
				continue
			}
			all := true
			for _, nb := range nbs {
				if !downE[nb.Link] {
					all = false
					break
				}
			}
			if all {
				dark = append(dark, i)
				darkSet[i] = true
			}
		}
		var drainRIB *bgp.RIB
		if e.Planned && len(dark) > 0 && len(dark) < len(s.CDN.Sites) {
			if drainRIB, err = s.CDN.AnycastRIB(cdn.Drain(dark...)); err != nil {
				return Result{}, err
			}
		}
		for _, p := range s.Topo.Prefixes {
			totalWeight += p.Weight
			pre := preRIB.BestFrom(p.Origin, p.City)
			if !pre.Valid {
				continue
			}
			hit := false
			for _, l := range pre.Links {
				if downE[l] {
					hit = true
					break
				}
			}
			if hit {
				if e.Planned && drainRIB != nil {
					// Drained ahead of the fault: no downtime, only the
					// latency cost of serving from the fallback site.
					anyAffP += p.Weight
					anyDownPlanned.Add(0, p.Weight)
					preRTT, _, err1 := s.CDN.RTTViaRIB(s.Sim, preRIB, p, e.Start)
					postRTT, _, err2 := s.CDN.RTTViaRIB(s.Sim, drainRIB, p, e.Start)
					if err1 == nil && err2 == nil {
						drainInflate.Add(postRTT-preRTT, p.Weight)
					}
				} else {
					anyAff += p.Weight
					post := postRIB.BestFrom(p.Origin, p.City)
					if conv, ok := s.Cfg.Convergence.Minutes(pre, post); ok {
						anyDown.Add(math.Min(conv, e.Duration), p.Weight)
					} else {
						anyDown.Add(e.Duration, p.Weight)
					}
				}
			}
			if pinned := rd.Decision(p, s.DNS); pinned != cdn.AnycastChoice && darkSet[pinned] {
				switch {
				case e.Planned:
					// DNS maps repointed before the drain window opens.
					dnsAffP += p.Weight
					dnsDownPlanned.Add(0, p.Weight)
				case tl.DNSStale(e.Start):
					// The map cannot be rewritten: dark for the duration.
					dnsAff += p.Weight
					dnsDown.Add(e.Duration, p.Weight)
				default:
					dnsAff += p.Weight
					dnsDown.Add(math.Min(dnsDetectMin+dnsTTLMeanMin, e.Duration), p.Weight)
				}
			}
		}
	}

	tb := stats.Table{Name: "fault-driven downtime per affected client (minutes)",
		Columns: []string{"mean_downtime_min", "p90_downtime_min", "frac_clients_affected"}}
	tb.AddRow("anycast_unplanned", distMean(anyDown), distQ(anyDown, 0.90), frac(anyAff, totalWeight))
	tb.AddRow("anycast_planned_drain", distMean(anyDownPlanned), distQ(anyDownPlanned, 0.90), frac(anyAffP, totalWeight))
	tb.AddRow("dns_unplanned", distMean(dnsDown), distQ(dnsDown, 0.90), frac(dnsAff, totalWeight))
	tb.AddRow("dns_planned_repoint", distMean(dnsDownPlanned), distQ(dnsDownPlanned, 0.90), frac(dnsAffP, totalWeight))
	dr := stats.Table{Name: "planned-drain latency cost", Columns: []string{"value"}}
	dr.AddRow("median_inflation_ms", distMedian(drainInflate))
	dr.AddRow("p90_inflation_ms", distQ(drainInflate, 0.90))

	res := Result{ID: "xavail", Title: "Anycast vs DNS redirection under injected site and cable failures"}
	res.Tables = append(res.Tables, tb, dr)
	res.Notes = append(res.Notes,
		"anycast clients are back after BGP convergence; DNS clients wait out detection plus cache expiry, and a stale-map window stretches that to the whole outage — §4's trade-off, now under an injected schedule",
		"draining a site ahead of planned maintenance makes the fault invisible at a modest latency cost; the graceful path exists for both policies but only if the event is known in advance")
	return res, nil
}
