package core

import (
	"fmt"
	"math"
	"testing"
)

// FuzzConfigValidate throws arbitrary field values at Config.Validate and
// checks the contract: it never panics, repeated calls return the same
// error text (with several fields invalid, the same one is named), and
// whenever it accepts a config every fuzzed field is within its
// documented range (probabilities in [0, 1], counts non-negative, rates
// finite) and the trace fits the netsim horizon. Run with
// `go test -fuzz=FuzzConfigValidate ./internal/core/` (or `make fuzz`).
func FuzzConfigValidate(f *testing.F) {
	f.Add(uint64(42), 10, 3, 0.5, 1.2, 0.1, 15.0, 2.0, 0.0)
	f.Add(uint64(1), 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(7), -1, 5, 1.5, 0.5, math.NaN(), -3.0, math.Inf(1), -1.0)
	f.Add(uint64(3), 41, 3, 0.5, 1.2, 0.1, 15.0, 2.0, 0.0)
	f.Add(uint64(5), 0, 3, 0.5, 1.2, 0.1, 15.0, 2.0, 5*24*60.0)
	f.Add(uint64(9), 0, 3, 0.5, 1.2, -0.5, 15.0, 2.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, seed uint64, days, topk int,
		pniProb, wanStretch, impairProb, windowMin, serverMs, horizonMin float64) {
		cfg := Config{Seed: seed}
		cfg.Workload.Days = days
		cfg.Workload.TopK = topk
		cfg.Workload.WindowMin = windowMin
		cfg.Provider.PNIProb = pniProb
		cfg.Provider.WANStretch = wanStretch
		cfg.Net.LinkImpairedProb = impairProb
		cfg.CDN.ServerMs = serverMs
		cfg.Net.HorizonMinutes = horizonMin
		err := cfg.Validate()
		for i := 0; i < 8; i++ {
			if again := cfg.Validate(); fmt.Sprint(again) != fmt.Sprint(err) {
				t.Fatalf("Validate is not repeatable: %v, then %v", err, again)
			}
		}
		if err != nil {
			return
		}
		// Accepted: every fuzzed field must be in its documented range.
		if days < 0 || topk < 0 {
			t.Fatalf("accepted negative counts: days=%d topk=%d", days, topk)
		}
		for name, p := range map[string]float64{
			"PNIProb": pniProb, "LinkImpairedProb": impairProb,
		} {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("accepted %s = %v outside [0, 1]", name, p)
			}
		}
		if wanStretch != 0 && (math.IsNaN(wanStretch) || wanStretch < 1) {
			t.Fatalf("accepted WANStretch = %v (< 1 and nonzero)", wanStretch)
		}
		for name, v := range map[string]float64{
			"WindowMin": windowMin, "ServerMs": serverMs,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("accepted %s = %v (not finite non-negative)", name, v)
			}
		}
		// The trace fits the horizon (zero days means 10, a zero horizon
		// 40 days).
		effDays, effHorizon := float64(days), horizonMin
		if days == 0 {
			effDays = 10
		}
		if horizonMin == 0 {
			effHorizon = 40 * 24 * 60
		}
		if effDays*24*60 > effHorizon {
			t.Fatalf("accepted a %v-day trace past a %v-minute horizon", effDays, effHorizon)
		}
	})
}
