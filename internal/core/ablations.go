package core

import (
	"context"
	"fmt"

	"beatbgp/internal/cdn"
	"beatbgp/internal/stats"
)

// Ablations: each disables one of the design choices DESIGN.md calls out
// as load-bearing for the paper's findings, and reports the same summary
// statistics as the affected figure so the effect is directly comparable.
// Each builds its variant worlds with Scenario.Derive, so only the stages
// its knob touches are rebuilt (see build.go).

// ablationSharedFate turns off the shared-fate last-mile congestion
// (§3.1.1's mechanism) and recomputes the Figure 1 summary: without it,
// congestion becomes route-specific and dynamic traffic engineering finds
// more wins.
func ablationSharedFate(ctx context.Context, s *Scenario) (Result, error) {
	run := func(disable bool) (improvable, degraded float64, err error) {
		// Net + Workload only: topology, provider, CDN, and DNS are
		// shared with the base scenario.
		sub, err := s.Derive(ctx, func(c *Config) {
			c.Net.DisableSharedFate = disable
			c.Workload.Days = 3
		})
		if err != nil {
			return 0, 0, err
		}
		pairs, err := sub.pairStatsAll()
		if err != nil {
			return 0, 0, err
		}
		var point stats.Dist
		for _, ps := range pairs {
			point.Add(ps.pointDiff, ps.volume)
		}
		r311, err := tableS311(sub)
		if err != nil {
			return 0, 0, err
		}
		deg, ok := r311.Tables[0].Cell("mean_frac_windows_preferred_degraded", "value")
		if !ok {
			return 0, 0, fmt.Errorf("core: afate: t311 cell mean_frac_windows_preferred_degraded missing")
		}
		return point.FracAtLeast(5), deg, nil
	}
	impOn, degOn, err := run(false)
	if err != nil {
		return Result{}, err
	}
	impOff, degOff, err := run(true)
	if err != nil {
		return Result{}, err
	}
	tb := stats.Table{Name: "shared-fate ablation (fig1/t311 summaries)",
		Columns: []string{"frac_improvable_ge5ms", "frac_windows_degraded"}}
	tb.AddRow("shared_fate_on", impOn, degOn)
	tb.AddRow("shared_fate_off", impOff, degOff)
	res := Result{ID: "afate", Title: "Ablation: shared-fate congestion off"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"with shared fate off, what congestion remains is route-specific, so the preferred path degrades alone less often and relatively more of the remaining degradation is dodgeable")
	return res, nil
}

// ablationECS gives the redirector oracle granularity: noiseless training
// and per-client decisions wherever the resolver sends ECS — and, via a
// DNS-only derived world, an ECS-bearing resolver for *every* client, so
// the oracle arm is truly per-client rather than per-LDNS for the 0.1%
// of ASes that happen to send ECS. The paper's point is that this
// granularity is unavailable in practice; with it, prediction errors
// shrink toward the Figure 3 opportunity.
func ablationECS(ctx context.Context, s *Scenario) (Result, error) {
	rd, _, err := odinRedirector(s, fig4SampleRate, 0)
	if err != nil {
		return Result{}, err
	}
	ldns, err := evaluateServing(s, rd)
	if err != nil {
		return Result{}, err
	}
	// DNS-only mutation: the derived world shares the topology, the
	// provider, the CDN, and the oracle with the base scenario and
	// rebuilds only the resolver population.
	ecsWorld, err := s.Derive(ctx, func(c *Config) {
		c.DNS.ISPECSProb = 1
	})
	if err != nil {
		return Result{}, err
	}
	oracle, err := evaluateRedirection(ecsWorld, cdn.TrainOpts{UseECS: true, NoiseMs: -1})
	if err != nil {
		return Result{}, err
	}
	tb := stats.Table{Name: "redirector granularity ablation",
		Columns: []string{"frac_improved_gt_1ms", "frac_worse_gt_1ms"}}
	tb.AddRow("ldns_granularity_measured", ldns.improved/ldns.evaluated, ldns.worse/ldns.evaluated)
	tb.AddRow("oracle_ecs_noiseless", oracle.improved/oracle.evaluated, oracle.worse/oracle.evaluated)
	res := Result{ID: "aecs", Title: "Ablation: oracle-granularity redirection"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"oracle granularity should improve at least as many clients and hurt fewer — the gap is the cost of the LDNS indirection the paper describes")
	return res, nil
}

// ablationPNI makes dedicated private interconnects exactly as likely to
// carry a persistent impairment as public links, removing the §3.1.2
// capacity-management advantage, and recomputes the Figure 1/2 summaries.
func ablationPNI(ctx context.Context, s *Scenario) (Result, error) {
	run := func(factor float64) (improvable, peerWorseTail float64, err error) {
		sub, err := s.Derive(ctx, func(c *Config) {
			c.Net.PNIImpairFactor = factor
			c.Workload.Days = 3
		})
		if err != nil {
			return 0, 0, err
		}
		pairs, err := sub.pairStatsAll()
		if err != nil {
			return 0, 0, err
		}
		var point stats.Dist
		for _, ps := range pairs {
			point.Add(ps.pointDiff, ps.volume)
		}
		f2, err := figure2(sub)
		if err != nil {
			return 0, 0, err
		}
		// Fraction of traffic where the best peer route is >=3ms slower
		// than the best transit route (the medians are robust to rare
		// impairments; the tail is where the ablation shows).
		var tail float64
		for _, sr := range f2.Series {
			if sr.Name == "peering-vs-transit" {
				tail = 1 - sr.YAt(3)
			}
		}
		return point.FracAtLeast(5), tail, nil
	}
	impManaged, ptManaged, err := run(0.15)
	if err != nil {
		return Result{}, err
	}
	impEqual, ptEqual, err := run(1.0)
	if err != nil {
		return Result{}, err
	}
	tb := stats.Table{Name: "PNI capacity-management ablation",
		Columns: []string{"frac_improvable_ge5ms", "frac_peer_worse_3ms"}}
	tb.AddRow("pnis_managed", impManaged, ptManaged)
	tb.AddRow("pnis_like_public", impEqual, ptEqual)
	res := Result{ID: "apni", Title: "Ablation: PNIs as impairment-prone as public links"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"when PNIs lose their managed-capacity advantage, BGP's most-preferred class is impaired more often and performance-aware routing finds more to fix")
	return res, nil
}
