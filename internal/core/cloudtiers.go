package core

import (
	"fmt"

	"beatbgp/internal/bgp"
	"beatbgp/internal/geo"
	"beatbgp/internal/measure"
	"beatbgp/internal/netpath"
	"beatbgp/internal/par"
	"beatbgp/internal/stats"
)

// tierState bundles the routing and measurement machinery for the
// Premium/Standard cloud-tier study. It is built lazily and cached on the
// scenario because fig5, t33, t4g and xwan all consume it.
type tierState struct {
	premRIB *bgp.RIB
	stdRIB  *bgp.RIB
	plat    *measure.Platform
	prem    measure.Target
	std     measure.Target
	// eligible VPs per the paper's filter: direct Premium adjacency,
	// >=1 intermediate AS on the Standard path.
	vps []measure.VantagePoint
}

func (s *Scenario) tiers() (*tierState, error) {
	s.tierMu.Lock()
	defer s.tierMu.Unlock()
	if s.tier != nil {
		return s.tier, nil
	}
	premRIB, err := s.Routes.Compute([]bgp.Announcement{s.Prov.PremiumAnnouncement()})
	if err != nil {
		return nil, err
	}
	stdRIB, err := s.Routes.Compute([]bgp.Announcement{s.Prov.StandardAnnouncement()})
	if err != nil {
		return nil, err
	}
	ts := &tierState{premRIB: premRIB, stdRIB: stdRIB}
	ts.plat = measure.New(s.Topo, s.Sim, s.Cfg.Seed+7)

	mkTarget := func(name string, rib *bgp.RIB) measure.Target {
		return measure.Target{
			Name: name,
			Route: func(vp measure.VantagePoint) (netpath.Route, error) {
				r := rib.Best(vp.AS)
				if !r.Valid {
					return netpath.Route{}, fmt.Errorf("core: vp%d cannot reach %s", vp.ID, name)
				}
				public, _, _, err := s.Prov.EntryAndWAN(s.Res, r, vp.City)
				return public, err
			},
			ExtraRTTMs: func(vp measure.VantagePoint) float64 {
				r := rib.Best(vp.AS)
				if !r.Valid {
					return 0
				}
				_, _, wanKm, err := s.Prov.EntryAndWAN(s.Res, r, vp.City)
				if err != nil {
					return 0
				}
				return wanKm * geo.FiberRTTMsPerKm
			},
		}
	}
	ts.prem = mkTarget("premium", premRIB)
	ts.std = mkTarget("standard", stdRIB)

	// Paper's vantage-point filter (§3.3): the Premium route enters the
	// provider directly from the VP's AS; the Standard route crosses at
	// least one intermediate AS.
	for _, vp := range ts.plat.VantagePoints() {
		pr, sr := premRIB.Best(vp.AS), stdRIB.Best(vp.AS)
		if !pr.Valid || !sr.Valid {
			continue
		}
		if pr.PathLen() != 2 || sr.PathLen() < 3 {
			continue
		}
		if _, err := ts.prem.Route(vp); err != nil {
			continue
		}
		if _, err := ts.std.Route(vp); err != nil {
			continue
		}
		ts.vps = append(ts.vps, vp)
	}
	if len(ts.vps) == 0 {
		return nil, fmt.Errorf("core: no vantage point passes the tier filter")
	}
	s.tier = ts
	return ts, nil
}

// tierCampaignDays is the length of the measurement campaign. The paper
// ran 10 months of probing; on the deterministic simulator additional
// identical days add no information, so the campaign is time-compressed
// (documented in DESIGN.md).
const tierCampaignDays = 12

// figure5 reproduces the paper's Figure 5: per-country median of
// (Standard - Premium) ping latency, from filtered vantage points. A
// positive value means the private WAN (Premium) performed better.
func figure5(s *Scenario) (Result, error) {
	ts, err := s.tiers()
	if err != nil {
		return Result{}, err
	}
	// The campaign fans out per ⟨day, vantage point⟩ on internal/par
	// workers: ping noise is keyed by ⟨vp, target, time⟩ so each probe's
	// value is independent of issue order, each worker measures through a
	// platform view over its own Sim clone, and the per-VP diff lists are
	// folded per country in campaign order — the same Add sequence as the
	// serial loop, so the table is bit-identical at any worker count.
	rounds := []float64{3 * 60, 9 * 60, 15 * 60, 21 * 60} // 4 of the 10 daily rounds
	type job struct {
		day int
		vp  measure.VantagePoint
	}
	var jobs []job
	for day := 0; day < tierCampaignDays; day++ {
		for _, vp := range dailySubset(ts, day) {
			jobs = append(jobs, job{day, vp})
		}
	}
	type partial struct {
		country string
		diffs   []float64
	}
	parts, err := par.MapState(s.workers(), jobs,
		func(int) *measure.Platform { return ts.plat.WithSim(s.Sim.Clone()) },
		func(plat *measure.Platform, _ int, j job) (partial, error) {
			pt := partial{country: s.countryOf(j.vp.City)}
			for _, h := range rounds {
				t := float64(j.day)*24*60 + h
				p1, err1 := plat.Ping(j.vp, ts.prem, t)
				p2, err2 := plat.Ping(j.vp, ts.std, t)
				if err1 != nil || err2 != nil {
					continue
				}
				pt.diffs = append(pt.diffs, p2-p1)
			}
			return pt, nil
		})
	if err != nil {
		return Result{}, err
	}
	perCountry := make(map[string]*stats.Dist)
	for _, pt := range parts {
		for _, diff := range pt.diffs {
			if perCountry[pt.country] == nil {
				perCountry[pt.country] = &stats.Dist{}
			}
			perCountry[pt.country].Add(diff, 1)
		}
	}
	tb := stats.Table{Name: "fig5 per-country Standard-Premium (ms)",
		Columns: []string{"median_diff_ms", "n_pings"}}
	var premBetter, stdBetter, tied int
	for _, c := range sortedKeys(perCountry) {
		d := perCountry[c]
		m := d.Median()
		tb.AddRow(c, m, float64(d.N()))
		switch {
		case m > 10:
			premBetter++
		case m < -10:
			stdBetter++
		default:
			tied++
		}
	}
	sum := stats.Table{Name: "fig5 summary", Columns: []string{"countries"}}
	sum.AddRow("premium_better_gt10ms", float64(premBetter))
	sum.AddRow("standard_better_gt10ms", float64(stdBetter))
	sum.AddRow("within_10ms", float64(tied))
	res := Result{ID: "fig5", Title: "Standard minus Premium median latency per country"}
	res.Tables = append(res.Tables, tb, sum)
	res.Notes = append(res.Notes,
		"paper: most of the Americas and Europe within +/-10ms; Premium better across most of Asia/Oceania; Standard better for India and parts of the Middle East / South America",
		fmt.Sprintf("campaign time-compressed to %d days on the deterministic simulator", tierCampaignDays))
	return res, nil
}

// dailySubset rotates through the filtered VPs deterministically.
func dailySubset(ts *tierState, day int) []measure.VantagePoint {
	n := len(ts.vps)
	take := n / 2
	if take < 1 {
		take = n
	}
	out := make([]measure.VantagePoint, 0, take)
	for i := 0; i < take; i++ {
		out = append(out, ts.vps[(day*take+i*2)%n])
	}
	return out
}

// tableS33 reports the §3.3 in-text traceroute analysis: the fraction of
// vantage points whose traffic enters the provider within 400 km when
// using each tier, and the India east-vs-west case study.
func tableS33(s *Scenario) (Result, error) {
	ts, err := s.tiers()
	if err != nil {
		return Result{}, err
	}
	// One traceroute-pair job per filtered VP on internal/par workers;
	// partials merge in VP order (see figure5 for the determinism rule).
	type vpPart struct {
		ok       bool
		tr1, tr2 measure.TracerouteResult
		india    bool
		diff     float64
		hasDiff  bool
		premKm   float64
		hasPrem  bool
		stdKm    float64
		hasStd   bool
	}
	parts, perr := par.MapState(s.workers(), ts.vps,
		func(int) *measure.Platform { return ts.plat.WithSim(s.Sim.Clone()) },
		func(plat *measure.Platform, _ int, vp measure.VantagePoint) (vpPart, error) {
			var pt vpPart
			tr1, err1 := plat.Traceroute(vp, ts.prem)
			tr2, err2 := plat.Traceroute(vp, ts.std)
			if err1 != nil || err2 != nil {
				return pt, nil
			}
			pt.ok, pt.tr1, pt.tr2 = true, tr1, tr2
			if s.countryOf(vp.City) == "IN" {
				pt.india = true
				p1, e1 := plat.Ping(vp, ts.prem, 9*60)
				p2, e2 := plat.Ping(vp, ts.std, 9*60)
				if e1 == nil && e2 == nil {
					pt.diff, pt.hasDiff = p2-p1, true
				}
				// Carried distance: premium = public + WAN; standard = full path.
				pr := ts.premRIB.Best(vp.AS)
				if pub, _, wanKm, err := s.Prov.EntryAndWAN(s.Res, pr, vp.City); err == nil {
					pt.premKm, pt.hasPrem = pub.Km+wanKm, true
				}
				sr := ts.stdRIB.Best(vp.AS)
				if pub, _, wanKm, err := s.Prov.EntryAndWAN(s.Res, sr, vp.City); err == nil {
					pt.stdKm, pt.hasStd = pub.Km+wanKm, true
				}
			}
			return pt, nil
		})
	if perr != nil {
		return Result{}, perr
	}
	var premNear, stdNear, premKnown, stdKnown float64
	var indiaDiff stats.Dist
	var indiaPremKm, indiaStdKm stats.Dist
	for _, pt := range parts {
		if !pt.ok {
			continue
		}
		if pt.tr1.IngressKnown {
			premKnown++
			if pt.tr1.IngressDistKm <= 400 {
				premNear++
			}
		}
		if pt.tr2.IngressKnown {
			stdKnown++
			if pt.tr2.IngressDistKm <= 400 {
				stdNear++
			}
		}
		if pt.india {
			if pt.hasDiff {
				indiaDiff.Add(pt.diff, 1)
			}
			if pt.hasPrem {
				indiaPremKm.Add(pt.premKm, 1)
			}
			if pt.hasStd {
				indiaStdKm.Add(pt.stdKm, 1)
			}
		}
	}
	tb := stats.Table{Name: "s3.3 ingress analysis", Columns: []string{"value"}}
	if premKnown > 0 {
		tb.AddRow("premium_frac_ingress_within_400km", premNear/premKnown)
	}
	if stdKnown > 0 {
		tb.AddRow("standard_frac_ingress_within_400km", stdNear/stdKnown)
	}
	tb.AddRow("india_median_std_minus_prem_ms", indiaDiff.Median())
	tb.AddRow("india_median_premium_path_km", indiaPremKm.Median())
	tb.AddRow("india_median_standard_path_km", indiaStdKm.Median())
	res := Result{ID: "t33", Title: "Ingress distances and the India case study"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"paper: 80% of Premium traceroutes enter the provider within 400km of the VP vs 10% for Standard; for India, BGP routes west via a Tier-1 while the WAN hauls east across the Pacific, so Standard wins")
	return res, nil
}

// tableGoodput reproduces the §4 footnote: 10 MB downloads over the two
// tiers show little goodput difference.
func tableGoodput(s *Scenario) (Result, error) {
	ts, err := s.tiers()
	if err != nil {
		return Result{}, err
	}
	const payload = 10e6
	var premPut, stdPut stats.Dist
	for i, vp := range ts.vps {
		if i%2 != 0 {
			continue
		}
		t := float64(i%24) * 60
		fetch := func(tgt measure.Target, rib *bgp.RIB) (float64, bool) {
			route, err := tgt.Route(vp)
			if err != nil {
				return 0, false
			}
			rtt, err := ts.plat.Ping(vp, tgt, t)
			if err != nil {
				return 0, false
			}
			loss := s.Sim.LossRate(route, vp.Prefix, t)
			ms := rtt + transferTimeMs(payload, rtt, loss)
			return goodputMbps(payload, ms), true
		}
		if g, ok := fetch(ts.prem, ts.premRIB); ok {
			premPut.Add(g, 1)
		}
		if g, ok := fetch(ts.std, ts.stdRIB); ok {
			stdPut.Add(g, 1)
		}
	}
	tb := stats.Table{Name: "10MB goodput (Mbps)", Columns: []string{"median", "p25", "p75"}}
	tb.AddRow("premium", premPut.Median(), premPut.Quantile(0.25), premPut.Quantile(0.75))
	tb.AddRow("standard", stdPut.Median(), stdPut.Quantile(0.25), stdPut.Quantile(0.75))
	res := Result{ID: "t4g", Title: "Bulk goodput by tier"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes, "paper: 10MB downloads from the two tiers saw little difference")
	return res, nil
}
