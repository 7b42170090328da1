package core

import (
	"fmt"
	"math"
	"testing"

	"beatbgp/internal/geo"
	"beatbgp/internal/netsim"
)

// FuzzConfigValidate throws arbitrary field values at Config.Validate and
// checks the contract: it never panics, repeated calls return the same
// error text (with several fields or regions invalid, the same one is
// named), and whenever it accepts a config every fuzzed field is within
// its documented range (probabilities in [0, 1], counts non-negative,
// rates finite) and the trace fits the netsim horizon. Run with
// `go test -fuzz=FuzzConfigValidate ./internal/core/` (or `make fuzz`).
func FuzzConfigValidate(f *testing.F) {
	f.Add(uint64(42), 10, 3, 0.5, 1.2, 0.1, 15.0, 2.0, 0, 0)
	f.Add(uint64(1), 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)
	f.Add(uint64(7), -1, 5, 1.5, 0.5, math.NaN(), -3.0, math.Inf(1), 0, 0)
	f.Add(uint64(3), 41, 3, 0.5, 1.2, 0.1, 15.0, 2.0, 0, 0)
	f.Add(uint64(9), 0, 3, 0.5, 1.2, -0.5, 15.0, 2.0, 0, 0)
	f.Add(uint64(11), 0, 3, 0.5, 1.2, 0.1, 15.0, 2.0, -1, -1)
	f.Fuzz(func(t *testing.T, seed uint64, days, topk int,
		pniProb, wanStretch, impairProb, windowMin, serverMs float64, popsNA, popsEU int) {
		cfg := Config{Seed: seed}
		if popsNA != 0 || popsEU != 0 {
			// Two regions, so two negative counts must name the same one
			// on every call.
			cfg.Provider.PoPsPerRegion = map[geo.Region]int{geo.NorthAmerica: popsNA, geo.Europe: popsEU}
			cfg.CDN.SitesPerRegion = map[geo.Region]int{geo.NorthAmerica: popsNA, geo.Europe: popsEU}
		}
		cfg.Workload.Days = days
		cfg.Workload.TopK = topk
		cfg.Workload.WindowMin = windowMin
		cfg.Provider.PNIProb = pniProb
		cfg.Provider.WANStretch = wanStretch
		cfg.Net.LinkImpairedProb = impairProb
		cfg.CDN.ServerMs = serverMs
		// The CDN's regions are checked on their own too: the provider's
		// would otherwise always fail first.
		err, cdnErr := cfg.Validate(), cfg.CDN.Validate()
		for i := 0; i < 8; i++ {
			if again := cfg.Validate(); fmt.Sprint(again) != fmt.Sprint(err) {
				t.Fatalf("Validate is not repeatable: %v, then %v", err, again)
			}
			if again := cfg.CDN.Validate(); fmt.Sprint(again) != fmt.Sprint(cdnErr) {
				t.Fatalf("cdn Validate is not repeatable: %v, then %v", cdnErr, again)
			}
		}
		if err != nil {
			return
		}
		// Accepted: every fuzzed field must be in its documented range.
		if days < 0 || topk < 0 || popsNA < 0 || popsEU < 0 {
			t.Fatalf("accepted negative counts: days=%d topk=%d pops=%d/%d", days, topk, popsNA, popsEU)
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
		// The trace fits the horizon (zero days means 10).
		effDays := float64(days)
		if days == 0 {
			effDays = 10
		}
		if effDays*24*60 > netsim.HorizonMinutes {
			t.Fatalf("accepted a %v-day trace past the %v-minute horizon", effDays, netsim.HorizonMinutes)
		}
	})
}
