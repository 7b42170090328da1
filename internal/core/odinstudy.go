package core

import (
	"fmt"

	"beatbgp/internal/stats"
)

// odinStudy derives Figure 4's prediction errors mechanistically: instead
// of injecting estimation noise, it runs an Odin-style client-measurement
// campaign at several sampling budgets, trains the redirector from the
// collected aggregates, and evaluates it side-by-side with anycast on
// later days. Sparse budgets produce noisy per-LDNS estimates and more
// "did worse than anycast" mass — the same failure mode the paper
// attributes to real redirection systems.
func odinStudy(s *Scenario) (Result, error) {
	tb := stats.Table{Name: "odin sampling budget sweep",
		Columns: []string{"samples", "frac_improved_gt_1ms", "frac_worse_gt_1ms", "mean_gain_ms"}}
	for _, rate := range []float64{0.002, 0.01, 0.05} {
		rd, samples, err := odinRedirector(s, rate, 0)
		if err != nil {
			return Result{}, err
		}
		o, err := evaluateServing(s, rd)
		if err != nil {
			return Result{}, err
		}
		if o.evaluated == 0 {
			return Result{}, fmt.Errorf("core: odin sweep evaluated nothing at rate %v", rate)
		}
		tb.AddRow(fmt.Sprintf("sample_rate_%.3f", rate),
			float64(samples), o.improved/o.evaluated, o.worse/o.evaluated, o.med.Mean())
	}
	res := Result{ID: "xodin", Title: "Measurement budget vs redirection quality"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"prediction error is a measurement-budget artifact: more instrumented page views, fewer mispredictions — grounding Figure 4's noise parameter in the Odin-style pipeline the paper's systems actually use")
	return res, nil
}
