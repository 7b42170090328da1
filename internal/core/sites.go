package core

import (
	"context"
	"fmt"
	"math"

	"beatbgp/internal/geo"
	"beatbgp/internal/stats"
)

// siteDensityStudy addresses the §3.2.2 open questions around CDN build-
// out: "How quickly does benefit diminish when adding PoPs? As PoPs are
// added, the chance of anycast picking a suboptimal one increases, but
// the number of reasonably performing ones increases. How do those
// factors relate?" The CDN is rebuilt at several site densities and the
// anycast-vs-best-unicast distribution re-measured on each. Each density
// is a CDN-only Derive of the base scenario, so the topology, provider
// WAN, and DNS mapping are built once and shared across the sweep.
func siteDensityStudy(ctx context.Context, s *Scenario) (Result, error) {
	baseSites := map[geo.Region]int{
		geo.NorthAmerica: 10,
		geo.Europe:       9,
		geo.Asia:         4,
		geo.SouthAmerica: 2,
		geo.MiddleEast:   1,
		geo.Africa:       1,
		geo.Oceania:      1,
	}
	scales := []float64{0.5, 1.0, 1.6, 2.4}
	tb := stats.Table{Name: "site density sweep",
		Columns: []string{"sites", "median_anycast_ms", "median_gap_ms", "p95_gap_ms", "frac_miscaught"}}
	for _, scale := range scales {
		sub, err := s.Derive(ctx, func(c *Config) {
			c.CDN.SitesPerRegion = make(map[geo.Region]int, len(baseSites))
			for r, n := range baseSites {
				v := int(math.Round(float64(n) * scale))
				if v < 1 {
					v = 1
				}
				c.CDN.SitesPerRegion[r] = v
			}
			c.Workload.Days = 2
		})
		if err != nil {
			return Result{}, err
		}
		var anyRTT, gap stats.Dist
		miscaught, evaluated := 0.0, 0.0
		const when = 10 * 60
		for _, p := range sub.Topo.Prefixes {
			any, site, err := sub.CDN.AnycastRTT(sub.Sim, p, nil, when)
			if err != nil {
				continue
			}
			best, bestSite := math.Inf(1), -1
			for _, sx := range sub.CDN.NearestSites(p, nearbyUnicastCount) {
				if rtt, err := sub.CDN.UnicastRTT(sub.Sim, p, sx, when); err == nil && rtt < best {
					best, bestSite = rtt, sx
				}
			}
			if math.IsInf(best, 1) {
				continue
			}
			evaluated += p.Weight
			anyRTT.Add(any, p.Weight)
			gap.Add(any-best, p.Weight)
			if site != bestSite && any-best > 10 {
				miscaught += p.Weight
			}
		}
		if evaluated == 0 {
			return Result{}, fmt.Errorf("core: no measurements at scale %v", scale)
		}
		tb.AddRow(fmt.Sprintf("scale_%.1fx", scale),
			float64(len(sub.CDN.Sites)), anyRTT.Median(), gap.Median(),
			gap.Quantile(0.95), miscaught/evaluated)
	}
	res := Result{ID: "xsites", Title: "CDN build-out: how many sites are enough?"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"absolute anycast latency falls with density while the catchment-miss share does not vanish — adding sites adds both good options and chances to pick the wrong one, the tension §3.2.2 calls out")
	return res, nil
}
