package core

import (
	"beatbgp/internal/stats"
)

// hybridStudy evaluates §4's suggestion that "performance-aware routing
// or hybrid approaches may be necessary to claim this 'lost'
// performance": plain anycast, the Figure-4 best-predicted redirector,
// and hybrids that override anycast only when the predicted gain clears a
// margin. A good hybrid keeps most of the improvement while shedding the
// did-worse mass.
func hybridStudy(s *Scenario) (Result, error) {
	tb := stats.Table{Name: "serving policy comparison",
		Columns: []string{"frac_improved_gt_1ms", "frac_worse_gt_1ms", "mean_gain_ms"}}
	schemes := []struct {
		label  string
		margin float64
	}{
		{"redirect_margin_0ms", 0},
		{"hybrid_margin_10ms", 10},
		{"hybrid_margin_25ms", 25},
	}
	for _, sc := range schemes {
		rd, _, err := odinRedirector(s, fig4SampleRate, sc.margin)
		if err != nil {
			return Result{}, err
		}
		o, err := evaluateServing(s, rd)
		if err != nil {
			return Result{}, err
		}
		tb.AddRow(sc.label,
			o.improved/o.evaluated, o.worse/o.evaluated, o.med.Mean())
	}
	res := Result{ID: "xhybrid", Title: "Hybrid anycast + DNS redirection"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"raising the override margin trades a little improvement for fewer regressions; anycast itself is the margin=infinity row (0 improved, 0 worse)")
	return res, nil
}
