package core

import (
	"math"

	"beatbgp/internal/cdn"
	"beatbgp/internal/stats"
)

// Site-outage availability model constants (minutes).
const (
	outageLenMin      = 60.0 // how long a failed site stays down
	dnsDetectMin      = 2.0  // health checks notice and rewrite DNS
	dnsTTLMeanMin     = 5.0  // mean residual cache lifetime at resolvers
	outageSampleEvery = 1    // evaluate every site
)

// siteOutageStudy quantifies §4's availability claim: "Anycast provides
// resilience against site outages and avoids availability problems that
// can be induced by DNS caching." Every CDN site is failed in turn; the
// clients it was serving lose connectivity until either BGP reconverges
// to another site (anycast) or health detection plus DNS cache expiry
// move them (DNS redirection to a unicast front-end).
func siteOutageStudy(s *Scenario) (Result, error) {
	preRIB, err := s.CDN.AnycastRIB(nil)
	if err != nil {
		return Result{}, err
	}
	// An LDNS-granularity redirector, as in Figure 4.
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

	// One repair chain serves the whole sweep: failing site k+1 repairs
	// from site k's state across the two down-set diffs instead of
	// rebuilding all-pairs per site — bit-identical to ComputeWithout by
	// the RouteRepairer contract.
	walker, err := newRepairWalker(s.Routes, s.CDN.Announcements(nil))
	if err != nil {
		return Result{}, err
	}
	var anyDown, dnsDown stats.Dist // downtime minutes per affected client
	var anyInflate stats.Dist       // anycast post-failover latency inflation
	var anyAffected, dnsAffected, totalWeight float64
	const when = 10 * 60
	for site := range s.CDN.Sites {
		if site%outageSampleEvery != 0 {
			continue
		}
		// Fail every link of the site's AS.
		down := map[int]bool{}
		for _, nb := range s.Topo.Neighbors(s.CDN.Sites[site].AS.ID) {
			down[nb.Link] = true
		}
		postRIB, err := walker.At(down)
		if err != nil {
			return Result{}, err
		}
		for _, p := range s.Topo.Prefixes {
			totalWeight += p.Weight
			pre := preRIB.BestFrom(p.Origin, p.City)
			if !pre.Valid {
				continue
			}
			// Anycast clients of the failed site.
			if sIdx, err := s.CDN.Catchment(p, nil); err == nil && sIdx == site {
				anyAffected += p.Weight
				post := postRIB.BestFrom(p.Origin, p.City)
				conv, ok := s.Cfg.Convergence.Minutes(pre, post)
				if !ok {
					anyDown.Add(outageLenMin, p.Weight)
				} else {
					anyDown.Add(math.Min(conv, outageLenMin), p.Weight)
					preRTT, _, err1 := s.CDN.RTTViaRIB(s.Sim, preRIB, p, when)
					postRTT, _, err2 := s.CDN.RTTViaRIB(s.Sim, postRIB, p, when)
					if err1 == nil && err2 == nil {
						anyInflate.Add(postRTT-preRTT, p.Weight)
					}
				}
			}
			// DNS-redirected clients pinned to the failed site.
			if rd.Decision(p, s.DNS) == site {
				dnsAffected += p.Weight
				dnsDown.Add(math.Min(dnsDetectMin+dnsTTLMeanMin, outageLenMin), p.Weight)
			}
		}
	}
	tb := stats.Table{Name: "site-outage downtime per affected client (minutes)",
		Columns: []string{"mean_downtime_min", "frac_clients_affected"}}
	tb.AddRow("anycast_bgp_failover", anyDown.Mean(), anyAffected/totalWeight)
	tb.AddRow("dns_redirection_ttl", dnsDown.Mean(), dnsAffected/totalWeight)
	sum := stats.Table{Name: "anycast failover latency", Columns: []string{"value"}}
	sum.AddRow("median_inflation_ms", anyInflate.Median())
	sum.AddRow("p90_inflation_ms", anyInflate.Quantile(0.90))
	res := Result{ID: "xdyn", Title: "Site outages: anycast failover vs DNS caching"}
	res.Tables = append(res.Tables, tb, sum)
	res.Notes = append(res.Notes,
		"anycast clients are back after BGP convergence (a minute or two) at a modest latency penalty; DNS-redirected clients stay dark for detection plus cache expiry — §4's resilience trade-off")
	return res, nil
}
