package core

import (
	"context"
	"fmt"
	"math"

	"beatbgp/internal/geo"
	"beatbgp/internal/par"
	"beatbgp/internal/provider"
	"beatbgp/internal/stats"
	"beatbgp/internal/topology"
	"beatbgp/internal/workload"
)

// efTraces lazily collects the Edge-Fabric measurement trace: every
// client prefix observed from its serving PoP with BGP's top routes
// sprayed, per the paper's §3.1 dataset. Shared by fig1/fig2/t31/t311.
//
// The sweep is sharded across internal/par workers: route propagation is
// primed per unique origin, then prefixes replay on per-worker generators
// (each over its own Sim clone, so lazy congestion memos never contend).
// Every per-prefix trace is a pure function of the prefix — session noise
// is keyed by ⟨prefix, PoP⟩, never by worker — and the merge keeps prefix
// order, so the trace slice is bit-identical at any worker count.
func (s *Scenario) efTraces() ([]workload.Trace, error) {
	s.tracesMu.Lock()
	defer s.tracesMu.Unlock()
	if s.traces != nil {
		return s.traces, nil
	}
	workers := s.workers()

	// Warm the per-origin RIB memo once, in parallel, so the replay
	// workers below do pure read-only lookups.
	seen := make(map[int]bool)
	var origins []int
	for _, p := range s.Topo.Prefixes {
		if !seen[p.Origin] {
			seen[p.Origin] = true
			origins = append(origins, p.Origin)
		}
	}
	if err := s.Oracle.PrimeOrigins(context.Background(), workers, origins); err != nil {
		return nil, err
	}

	type obs struct {
		tr workload.Trace
		ok bool
	}
	results, err := par.MapState(workers, s.Topo.Prefixes,
		func(int) *workload.Generator { return s.Gen.WithSim(s.Sim.Clone()) },
		func(gen *workload.Generator, _ int, p topology.Prefix) (obs, error) {
			rib, err := s.Oracle.ToPrefix(p)
			if err != nil {
				return obs{}, err
			}
			pop := s.Prov.ServingPoP(p.City)
			opts := s.Prov.EgressOptions(rib, pop)
			if len(opts) < 2 {
				return obs{}, nil // no alternate to compare against
			}
			tr, err := gen.Observe(pop, p, opts)
			if err != nil || len(tr.Routes) < 2 {
				return obs{}, nil
			}
			return obs{tr, true}, nil
		})
	if err != nil {
		return nil, err
	}
	for _, o := range results {
		if o.ok {
			s.traces = append(s.traces, o.tr)
		}
	}
	if len(s.traces) == 0 {
		return nil, fmt.Errorf("core: no usable edge-fabric traces")
	}
	return s.traces, nil
}

// pairStats is the per-⟨PoP, prefix⟩ aggregation behind Figures 1 and 2.
type pairStats struct {
	trace     workload.Trace
	diffs     stats.Dist // per-window (preferred - best alternate)
	pointDiff float64    // median over windows
	ciLo      float64
	ciHi      float64
	volume    float64 // total bytes
}

func (s *Scenario) pairStatsAll() ([]pairStats, error) {
	traces, err := s.efTraces()
	if err != nil {
		return nil, err
	}
	out := make([]pairStats, 0, len(traces))
	for _, tr := range traces {
		ps := pairStats{trace: tr}
		for _, w := range tr.Windows {
			pref := w.MedianMinRTTMs[0]
			alt := math.Inf(1)
			for _, v := range w.MedianMinRTTMs[1:] {
				alt = min(alt, v)
			}
			ps.diffs.Add(pref-alt, 1)
			ps.volume += w.VolumeBytes
		}
		ps.pointDiff = ps.diffs.Median()
		ps.ciLo, ps.ciHi = ps.diffs.MedianCI(0.95)
		out = append(out, ps)
	}
	return out, nil
}

// Figure1 reproduces the paper's Figure 1: the traffic-weighted CDF of
// the median MinRTT difference between BGP's preferred route and the
// best-performing alternate, with the confidence-interval band.
func Figure1(s *Scenario) (Result, error) {
	pairs, err := s.pairStatsAll()
	if err != nil {
		return Result{}, err
	}
	var point, lo, hi stats.Dist
	for _, ps := range pairs {
		point.Add(ps.pointDiff, ps.volume)
		lo.Add(ps.ciLo, ps.volume)
		hi.Add(ps.ciHi, ps.volume)
	}
	res := Result{ID: "fig1", Title: "Median MinRTT difference, BGP - best alternate"}
	res.Series = append(res.Series,
		point.CDFSeries("median-diff", -10, 10, 81),
		lo.CDFSeries("ci-lower", -10, 10, 81),
		hi.CDFSeries("ci-upper", -10, 10, 81),
	)
	tb := stats.Table{Name: "fig1 summary", Columns: []string{"value"}}
	tb.AddRow("pairs", float64(len(pairs)))
	tb.AddRow("frac_traffic_diff_ge_5ms", point.FracAtLeast(5))
	tb.AddRow("frac_traffic_abs_diff_le_1ms", point.CDF(1)-point.FracBelow(-1))
	tb.AddRow("frac_traffic_bgp_strictly_better_1ms", point.FracBelow(-1))
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"paper: BGP better than or roughly equal to the best alternate for the vast majority of traffic; >=5ms improvement possible for only 2-4% of traffic")
	return res, nil
}

// Figure2 reproduces Figure 2: the traffic-weighted CDFs of (best peer -
// best transit) and (best private peer - best public peer) median MinRTT.
func Figure2(s *Scenario) (Result, error) {
	traces, err := s.efTraces()
	if err != nil {
		return Result{}, err
	}
	var peerVsTransit, privVsPub stats.Dist
	for _, tr := range traces {
		var volume float64
		for _, w := range tr.Windows {
			volume += w.VolumeBytes
		}
		// Per-window best by class, then median of the difference.
		var dPT, dPP stats.Dist
		for _, w := range tr.Windows {
			bestPeer, bestTransit := math.Inf(1), math.Inf(1)
			bestPriv, bestPub := math.Inf(1), math.Inf(1)
			for i, ro := range tr.Routes {
				v := w.MedianMinRTTMs[i]
				switch ro.Option.Class {
				case provider.ClassPNI:
					bestPeer, bestPriv = min(bestPeer, v), min(bestPriv, v)
				case provider.ClassPublicPeer:
					bestPeer, bestPub = min(bestPeer, v), min(bestPub, v)
				case provider.ClassTransit:
					bestTransit = min(bestTransit, v)
				}
			}
			if !math.IsInf(bestPeer, 1) && !math.IsInf(bestTransit, 1) {
				dPT.Add(bestPeer-bestTransit, 1)
			}
			if !math.IsInf(bestPriv, 1) && !math.IsInf(bestPub, 1) {
				dPP.Add(bestPriv-bestPub, 1)
			}
		}
		if dPT.N() > 0 {
			peerVsTransit.Add(dPT.Median(), volume)
		}
		if dPP.N() > 0 {
			privVsPub.Add(dPP.Median(), volume)
		}
	}
	res := Result{ID: "fig2", Title: "Peer vs transit; private vs public peering"}
	res.Series = append(res.Series,
		peerVsTransit.CDFSeries("peering-vs-transit", -10, 10, 81),
		privVsPub.CDFSeries("private-vs-public", -10, 10, 81),
	)
	tb := stats.Table{Name: "fig2 summary", Columns: []string{"median_ms", "n_pairs"}}
	tb.AddRow("peer_minus_transit", peerVsTransit.Median(), float64(peerVsTransit.N()))
	tb.AddRow("private_minus_public", privVsPub.Median(), float64(privVsPub.N()))
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"paper: transits usually perform like peers, public exchange like private interconnects")
	return res, nil
}

// TableS31 reports the §3.1 in-text numbers: the share of traffic whose
// median latency a performance-aware controller could improve by >=5 ms,
// the client-to-PoP distance distribution of §2.3.1, and the benefit of
// an omniscient versus a reactive (Edge-Fabric-style, previous-window)
// controller.
func TableS31(s *Scenario) (Result, error) {
	pairs, err := s.pairStatsAll()
	if err != nil {
		return Result{}, err
	}
	var point stats.Dist
	var dist stats.Dist
	var omniGain, reactiveGain stats.Dist
	for _, ps := range pairs {
		point.Add(ps.pointDiff, ps.volume)
		d := geo.DistanceKm(
			s.Topo.Catalog.City(ps.trace.Prefix.City).Loc,
			s.Topo.Catalog.City(ps.trace.PoPCity).Loc)
		dist.Add(d, ps.volume)

		// Controllers: per-window gain over always-BGP.
		prevBest := 0 // reactive controller's current route (starts on BGP's pick)
		var omni, reactive float64
		for wi, w := range ps.trace.Windows {
			pref := w.MedianMinRTTMs[0]
			best, bestIdx := pref, 0
			for i, v := range w.MedianMinRTTMs {
				if v < best {
					best, bestIdx = v, i
				}
			}
			omni += pref - best
			reactive += pref - w.MedianMinRTTMs[prevBest]
			_ = wi
			prevBest = bestIdx // decided from this window, applied next
		}
		n := float64(len(ps.trace.Windows))
		omniGain.Add(omni/n, ps.volume)
		reactiveGain.Add(reactive/n, ps.volume)
	}
	tb := stats.Table{Name: "s3.1 in-text", Columns: []string{"value"}}
	tb.AddRow("frac_traffic_improvable_ge5ms", point.FracAtLeast(5))
	tb.AddRow("frac_traffic_within_500km", dist.CDF(500))
	tb.AddRow("frac_traffic_within_2500km", dist.CDF(2500))
	tb.AddRow("median_client_pop_km", dist.Median())
	tb.AddRow("mean_gain_omniscient_ms", omniGain.Mean())
	tb.AddRow("mean_gain_reactive_ms", reactiveGain.Mean())
	res := Result{ID: "t31", Title: "Edge-Fabric setting in-text statistics"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"paper: half of traffic within 500 km of the serving PoP, 90% within 2500 km; improvable >=5ms for 2-4%")
	return res, nil
}

// TableS311 reproduces the §3.1.1 analysis: degradation on the preferred
// path is more prevalent than improvement opportunities, and alternates
// that do beat BGP tend to beat it all the time.
func TableS311(s *Scenario) (Result, error) {
	traces, err := s.efTraces()
	if err != nil {
		return Result{}, err
	}
	const significantMs = 3
	var degradedFrac, improvableFrac stats.Dist
	pairsWithWin, persistentWinners := 0.0, 0.0
	medianWinners, persistentMedianWinners := 0.0, 0.0
	var totalVolume, winVolume float64
	for _, tr := range traces {
		var volume float64
		for _, w := range tr.Windows {
			volume += w.VolumeBytes
		}
		totalVolume += volume
		// Baseline of the preferred path: its 10th percentile across windows.
		var prefDist stats.Dist
		for _, w := range tr.Windows {
			prefDist.Add(w.MedianMinRTTMs[0], 1)
		}
		base := prefDist.Quantile(0.10)
		degraded, improvable := 0, 0
		for _, w := range tr.Windows {
			pref := w.MedianMinRTTMs[0]
			alt := math.Inf(1)
			for _, v := range w.MedianMinRTTMs[1:] {
				alt = min(alt, v)
			}
			if pref > base+significantMs {
				degraded++
			}
			if pref-alt > significantMs {
				improvable++
			}
		}
		n := float64(len(tr.Windows))
		degradedFrac.Add(float64(degraded)/n, volume)
		improvableFrac.Add(float64(improvable)/n, volume)
		if improvable > 0 {
			pairsWithWin++
			winVolume += volume
			if float64(improvable)/n >= 0.8 {
				persistentWinners++
			}
		}
		// True winners: the alternate beats BGP at the *median*, not just
		// in occasional windows. These are the paper's "consistently
		// better" candidates.
		var diffs stats.Dist
		for _, w := range tr.Windows {
			pref := w.MedianMinRTTMs[0]
			alt := math.Inf(1)
			for _, v := range w.MedianMinRTTMs[1:] {
				alt = min(alt, v)
			}
			diffs.Add(pref-alt, 1)
		}
		if diffs.Median() > significantMs {
			medianWinners++
			if float64(improvable)/n >= 0.8 {
				persistentMedianWinners++
			}
		}
	}
	tb := stats.Table{Name: "s3.1.1 degrade-together analysis", Columns: []string{"value"}}
	tb.AddRow("mean_frac_windows_preferred_degraded", degradedFrac.Mean())
	tb.AddRow("mean_frac_windows_alternate_better", improvableFrac.Mean())
	tb.AddRow("pairs_with_any_winning_window", pairsWithWin)
	if pairsWithWin > 0 {
		tb.AddRow("frac_any_winners_persistent_ge80pct", persistentWinners/pairsWithWin)
	} else {
		tb.AddRow("frac_any_winners_persistent_ge80pct", 0)
	}
	tb.AddRow("pairs_with_median_winning_alternate", medianWinners)
	if medianWinners > 0 {
		tb.AddRow("frac_median_winners_persistent_ge80pct", persistentMedianWinners/medianWinners)
	} else {
		tb.AddRow("frac_median_winners_persistent_ge80pct", 0)
	}
	tb.AddRow("frac_volume_with_winning_window", winVolume/totalVolume)
	res := Result{ID: "t311", Title: "Degradations vs improvement windows"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"paper: degradations on BGP's path are more prevalent than improvement opportunities; most winning alternates win consistently")
	return res, nil
}
