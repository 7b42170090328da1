package core

import (
	"context"

	"beatbgp/internal/stats"
)

// corridorStudy runs the what-if behind the paper's §3.3.2 India finding:
// the 2019-era WAN reached Asia only across the Pacific, so a Tier-1
// carrying Standard-tier traffic west via the Suez route beat it. Lease
// the missing Europe–Asia corridor and the comparison should flip — which
// is what the provider in question eventually did.
// Each arm is a Provider-only Derive of the base scenario: the topology
// stage is shared, and the no-corridor arm (when it matches the base
// config) reuses the whole immutable world.
func corridorStudy(ctx context.Context, s *Scenario) (Result, error) {
	countries := []string{"IN", "PK", "AE", "SA", "JP", "AU", "US", "DE"}
	run := func(corridor bool) (map[string]float64, error) {
		sub, err := s.Derive(ctx, func(c *Config) {
			c.Provider.EuropeAsiaCorridor = corridor
		})
		if err != nil {
			return nil, err
		}
		ts, err := sub.tiers()
		if err != nil {
			return nil, err
		}
		per := map[string]*stats.Dist{}
		for i, vp := range ts.vps {
			c := sub.countryOf(vp.City)
			found := false
			for _, want := range countries {
				if c == want {
					found = true
					break
				}
			}
			if !found {
				continue
			}
			t := float64(i%24) * 60
			p1, e1 := ts.plat.Ping(vp, ts.prem, t)
			p2, e2 := ts.plat.Ping(vp, ts.std, t)
			if e1 != nil || e2 != nil {
				continue
			}
			if per[c] == nil {
				per[c] = &stats.Dist{}
			}
			per[c].Add(p2-p1, 1)
		}
		out := map[string]float64{}
		for c, d := range per {
			out[c] = d.Median()
		}
		return out, nil
	}
	without, err := run(false)
	if err != nil {
		return Result{}, err
	}
	with, err := run(true)
	if err != nil {
		return Result{}, err
	}
	tb := stats.Table{Name: "std - prem median (ms) with and without the Europe-Asia WAN corridor",
		Columns: []string{"no_corridor", "with_corridor"}}
	for _, c := range countries {
		a, okA := without[c]
		b, okB := with[c]
		if !okA || !okB {
			continue
		}
		tb.AddRow(c, a, b)
	}
	res := Result{ID: "xcorridor", Title: "What-if: the WAN leases the Europe-Asia corridor"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"positive = Premium (WAN) faster; the corridor should flip India and its neighbors toward the WAN while leaving trans-Pacific and trans-Atlantic countries unchanged")
	return res, nil
}
