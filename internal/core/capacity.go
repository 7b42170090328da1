package core

import (
	"beatbgp/internal/provider"
	"beatbgp/internal/stats"
)

// capacityStudy runs the Edge-Fabric controller for its production
// purpose — keeping interconnects under capacity — across the §3.1 trace,
// and reports how much traffic gets detoured and what the detours cost in
// latency. The paper's framing: these controllers matter, but mostly for
// capacity, not because BGP picks slow paths.
func capacityStudy(s *Scenario) (Result, error) {
	traces, err := s.efTraces()
	if err != nil {
		return Result{}, err
	}
	// Mean per-window demand per preferred link, for provisioning.
	meanDemand := make(map[int]float64)
	for _, tr := range traces {
		link := tr.Routes[0].Option.Link
		var vol float64
		for _, w := range tr.Windows {
			vol += w.VolumeBytes
		}
		meanDemand[link] += vol / float64(len(tr.Windows))
	}
	caps, err := s.Prov.Provision(s.Cfg.Seed, meanDemand, 1.1, 3.0)
	if err != nil {
		return Result{}, err
	}

	// Group traces by PoP; the controller works per PoP per window.
	byPoP := make(map[int][]int) // pop city -> trace indices
	for i, tr := range traces {
		byPoP[tr.PoPCity] = append(byPoP[tr.PoPCity], i)
	}
	var totalVol, detouredVol float64
	windowsWithDetour, windows := 0, 0
	var latencyDelta stats.Dist     // detoured traffic: chosen - preferred median MinRTT
	var noControlPenalty stats.Dist // counterfactual: standing-queue cost with nobody detouring
	nWindows := len(traces[0].Windows)
	for w := 0; w < nWindows; w++ {
		windows++
		anyDetour := false
		for _, idxs := range byPoP {
			demands := make([]provider.Demand, len(idxs))
			rawLoad := make(map[int]float64)
			for k, ti := range idxs {
				tr := traces[ti]
				links := make([]int, len(tr.Routes))
				for r, ro := range tr.Routes {
					links[r] = ro.Option.Link
				}
				demands[k] = provider.Demand{Volume: tr.Windows[w].VolumeBytes, Links: links}
				rawLoad[links[0]] += tr.Windows[w].VolumeBytes
			}
			choice, detoured := provider.AssignUnderCapacity(demands, caps)
			if detoured > 0 {
				anyDetour = true
			}
			detouredVol += detoured
			for k, ti := range idxs {
				tr := traces[ti]
				vol := tr.Windows[w].VolumeBytes
				totalVol += vol
				if choice[k] > 0 {
					latencyDelta.Add(
						tr.Windows[w].MedianMinRTTMs[choice[k]]-tr.Windows[w].MedianMinRTTMs[0],
						vol)
				}
				// Counterfactual: everything stays on the preferred link
				// and eats the queueing penalty of its utilization.
				link := tr.Routes[0].Option.Link
				if cap, ok := caps.PerLink[link]; ok && cap > 0 {
					if pen := provider.OverloadPenaltyMs(rawLoad[link] / cap); pen > 0 {
						noControlPenalty.Add(pen, vol)
					}
				}
			}
		}
		if anyDetour {
			windowsWithDetour++
		}
	}
	tb := stats.Table{Name: "edge-fabric capacity overrides", Columns: []string{"value"}}
	tb.AddRow("frac_windows_with_detour", float64(windowsWithDetour)/float64(windows))
	tb.AddRow("frac_volume_detoured", detouredVol/totalVol)
	if latencyDelta.N() > 0 {
		tb.AddRow("detour_latency_cost_median_ms", latencyDelta.Median())
		tb.AddRow("detour_latency_cost_p90_ms", latencyDelta.Quantile(0.90))
	} else {
		tb.AddRow("detour_latency_cost_median_ms", 0)
		tb.AddRow("detour_latency_cost_p90_ms", 0)
	}
	tb.AddRow("constrained_links", float64(len(caps.PerLink)))
	if noControlPenalty.N() > 0 {
		tb.AddRow("no_controller_frac_traffic_queued", noControlPenalty.TotalWeight()/totalVol)
		tb.AddRow("no_controller_queue_penalty_p90_ms", noControlPenalty.Quantile(0.90))
	} else {
		tb.AddRow("no_controller_frac_traffic_queued", 0)
		tb.AddRow("no_controller_queue_penalty_p90_ms", 0)
	}
	res := Result{ID: "xcap", Title: "Edge Fabric as a capacity controller"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"the controller's day job is capacity protection: a small slice of traffic is detoured at peak, at a small latency cost — consistent with the paper's point that its *performance* benefit over BGP is marginal")
	return res, nil
}
