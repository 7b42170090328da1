package core

import (
	"context"
	"math"

	"beatbgp/internal/cdn"
	"beatbgp/internal/geo"
	"beatbgp/internal/netsim"
	"beatbgp/internal/odin"
	"beatbgp/internal/par"
	"beatbgp/internal/stats"
	"beatbgp/internal/topology"
)

// anycastSampleTimes spreads request samples across the horizon's first
// days at varying times of day, like the paper's Bing-injected
// measurements.
func anycastSampleTimes() []float64 {
	var out []float64
	for day := 0; day < 4; day++ {
		for _, h := range []float64{2, 9, 14, 20} {
			out = append(out, float64(day)*24*60+h*60)
		}
	}
	return out
}

// nearbyUnicastCount is how many nearby unicast front-ends each client
// measures, mirroring the instrumented search results.
const nearbyUnicastCount = 6

// figure3 reproduces the paper's Figure 3: the CCDF, per request, of
// anycast latency minus the best measured unicast front-end latency, for
// the world, Europe, and the United States.
//
// The per-prefix catchment-and-RTT sweep runs on internal/par workers:
// the CDN's RIB caches are primed first so workers only read, each worker
// samples its own Sim clone, and the per-prefix diff lists (in sample-time
// order) are folded into the distributions in prefix order — the same Add
// sequence as the serial loop, so the figure is bit-identical at any
// worker count.
func figure3(s *Scenario) (Result, error) {
	times := anycastSampleTimes()
	workers := s.workers()
	if _, err := s.CDN.PrimeRIBs(context.Background(), workers); err != nil {
		return Result{}, err
	}
	type partial struct {
		diffs  []float64
		isEU   bool
		isUS   bool
		weight float64
	}
	parts, err := par.MapState(workers, s.Topo.Prefixes,
		func(int) *netsim.Sim { return s.Sim.Clone() },
		func(sim *netsim.Sim, _ int, p topology.Prefix) (partial, error) {
			city := s.Topo.Catalog.City(p.City)
			pt := partial{isEU: city.Region == geo.Europe, isUS: city.Country == "US", weight: p.Weight}
			nearest := s.CDN.NearestSites(p, nearbyUnicastCount)
			for _, t := range times {
				any, _, err := s.CDN.AnycastRTT(sim, p, nil, t)
				if err != nil {
					continue
				}
				best := math.Inf(1)
				for _, site := range nearest {
					if rtt, err := s.CDN.UnicastRTT(sim, p, site, t); err == nil && rtt < best {
						best = rtt
					}
				}
				if math.IsInf(best, 1) {
					continue
				}
				pt.diffs = append(pt.diffs, any-best)
			}
			return pt, nil
		})
	if err != nil {
		return Result{}, err
	}
	var world, europe, us stats.Dist
	for _, pt := range parts {
		for _, diff := range pt.diffs {
			world.Add(diff, pt.weight)
			if pt.isEU {
				europe.Add(diff, pt.weight)
			}
			if pt.isUS {
				us.Add(diff, pt.weight)
			}
		}
	}
	res := Result{ID: "fig3", Title: "Anycast minus best unicast, per request (CCDF)"}
	res.Series = append(res.Series,
		world.CCDFSeries("World", 0, 100, 101),
		europe.CCDFSeries("Europe", 0, 100, 101),
		us.CCDFSeries("UnitedStates", 0, 100, 101),
	)
	tb := stats.Table{Name: "fig3 summary", Columns: []string{"value"}}
	tb.AddRow("world_frac_within_10ms", world.CDF(10))
	tb.AddRow("world_frac_worse_by_100ms", world.FracAtLeast(100))
	tb.AddRow("us_frac_within_10ms", us.CDF(10))
	tb.AddRow("europe_frac_within_10ms", europe.CDF(10))
	tb.AddRow("requests", float64(world.N()))
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"paper: anycast within 10ms of best unicast for ~70% of requests globally; >=100ms slower for ~10%")
	return res, nil
}

// tableS32 reports the §2.3.2 front-end density statistics: the
// population-weighted median distance from clients to their 1st, 2nd and
// 4th nearest front-ends.
func tableS32(s *Scenario) (Result, error) {
	var d1, d2, d4 stats.Dist
	for _, p := range s.Topo.Prefixes {
		d1.Add(s.CDN.SiteDistanceKm(p, 0), p.Weight)
		d2.Add(s.CDN.SiteDistanceKm(p, 1), p.Weight)
		d4.Add(s.CDN.SiteDistanceKm(p, 3), p.Weight)
	}
	tb := stats.Table{Name: "front-end distances (km)", Columns: []string{"median_km"}}
	tb.AddRow("nearest", d1.Median())
	tb.AddRow("second_nearest", d2.Median())
	tb.AddRow("fourth_nearest", d4.Median())
	res := Result{ID: "t32", Title: "Distance to nth nearest front-end"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"paper (2015 Microsoft CDN): median 280 km to the nearest, 700 km to the 2nd, 1300 km to the 4th")
	return res, nil
}

// redirectionOutcome is the result of evaluating a serving policy
// side-by-side with anycast on held-out days — the machinery behind
// Figure 4, its ablations, and the hybrid/Odin studies.
type redirectionOutcome struct {
	med, p75                   stats.Dist
	improved, worse, evaluated float64
}

// redirectionWindows returns the training rounds (days 0-1) and held-out
// evaluation times (days 2-3) shared by every redirection study.
func redirectionWindows() (train, eval []float64) {
	for day := 0; day < 2; day++ {
		for _, h := range []float64{3, 10, 15, 21} {
			train = append(train, float64(day)*24*60+h*60)
		}
	}
	for day := 2; day < 4; day++ {
		for _, h := range []float64{2, 9, 14, 20} {
			eval = append(eval, float64(day)*24*60+h*60)
		}
	}
	return train, eval
}

// evaluateServing measures the redirector against plain anycast at the
// held-out times.
func evaluateServing(s *Scenario, rd *cdn.Redirector) (redirectionOutcome, error) {
	_, evalTimes := redirectionWindows()
	var out redirectionOutcome
	for _, p := range s.Topo.Prefixes {
		var imp stats.Dist
		for _, t := range evalTimes {
			any, _, err := s.CDN.AnycastRTT(s.Sim, p, nil, t)
			if err != nil {
				continue
			}
			served, err := s.CDN.ServeRTT(s.Sim, rd, s.DNS, p, t)
			if err != nil {
				continue
			}
			imp.Add(any-served, 1) // positive = redirection helped
		}
		if imp.N() == 0 {
			continue
		}
		out.evaluated++
		m := imp.Median()
		out.med.Add(m, p.Weight)
		out.p75.Add(imp.Quantile(0.75), p.Weight)
		if m > 1 {
			out.improved++
		}
		if m < -1 {
			out.worse++
		}
	}
	return out, nil
}

// evaluateRedirection trains the direct (omniscient-measurement)
// redirector with the given options and evaluates it — used by the
// oracle-granularity ablation.
func evaluateRedirection(s *Scenario, opts cdn.TrainOpts) (redirectionOutcome, error) {
	trainTimes, _ := redirectionWindows()
	rd, err := cdn.TrainRedirector(s.CDN, s.Sim, s.DNS, s.Topo.Prefixes, trainTimes, opts)
	if err != nil {
		return redirectionOutcome{}, err
	}
	return evaluateServing(s, rd)
}

// fig4SampleRate is the Odin sampling budget behind the headline Figure 4
// run: 1% of page views instrumented, the same order as production
// systems.
const fig4SampleRate = 0.01

// odinRedirector runs a measurement campaign and derives per-LDNS
// decisions from it.
func odinRedirector(s *Scenario, rate, marginMs float64) (*cdn.Redirector, int, error) {
	trainTimes, _ := redirectionWindows()
	pl := odin.New(s.CDN, s.DNS, s.Sim, odin.Config{Seed: s.Cfg.Seed + 11, SampleRate: rate})
	agg, err := pl.Collect(s.Topo.Prefixes, trainTimes)
	if err != nil {
		return nil, 0, err
	}
	return cdn.NewRedirector(odin.Decide(agg, 3, marginMs), nil), agg.Samples(), nil
}

// figure4 reproduces Figure 4: the weighted CDF over client /24s of the
// latency improvement from serving per the LDNS-granularity redirector
// (best predicted of unicast-or-anycast, trained from an Odin-style
// client-measurement campaign) versus plain anycast, at the median and
// 75th percentile.
func figure4(s *Scenario) (Result, error) {
	rd, _, err := odinRedirector(s, fig4SampleRate, 0)
	if err != nil {
		return Result{}, err
	}
	o, err := evaluateServing(s, rd)
	if err != nil {
		return Result{}, err
	}
	med, p75 := o.med, o.p75
	improved, worse, evaluated := o.improved, o.worse, o.evaluated
	res := Result{ID: "fig4", Title: "Improvement over anycast from DNS redirection"}
	res.Series = append(res.Series,
		med.CDFSeries("Median", -400, 400, 161),
		p75.CDFSeries("75th", -400, 400, 161),
	)
	tb := stats.Table{Name: "fig4 summary", Columns: []string{"value"}}
	tb.AddRow("clients_evaluated", evaluated)
	tb.AddRow("frac_improved_gt_1ms", improved/evaluated)
	tb.AddRow("frac_worse_gt_1ms", worse/evaluated)
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"paper: the LDNS-predicted choice improved the median for 27% of queries but did worse than anycast for 17%")
	return res, nil
}
