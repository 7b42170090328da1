package beatbgp_test

import (
	"testing"

	"beatbgp"
)

// TestRenderDeterministicAcrossWorkers is the parallel runtime's
// acceptance gate: for each seed and experiment, a scenario run at 2 and
// 8 workers — and a second independently built scenario with the same
// seed — must reproduce the workers=1 Render() output byte for byte.
// Any order-dependence smuggled into a parallel sweep (an RNG keyed by
// worker, a float accumulated in completion order, a racing cache) shows
// up here as a diff.
func TestRenderDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario sweep")
	}
	seeds := []uint64{42, 7}
	exps := []string{"fig1", "fig3", "fig5", "xdetect", "xflap"}
	for _, seed := range seeds {
		// Reference: fully serial run.
		refCfg := facadeConfig(seed)
		refCfg.Workers = 1
		ref, err := beatbgp.NewScenario(refCfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := make(map[string]string, len(exps))
		for _, id := range exps {
			r, err := beatbgp.Run(ref, id)
			if err != nil {
				t.Fatalf("seed %d %s workers=1: %v", seed, id, err)
			}
			want[id] = r.Render()
		}
		for _, workers := range []int{2, 8} {
			cfg := facadeConfig(seed)
			cfg.Workers = workers
			s, err := beatbgp.NewScenario(cfg)
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", seed, workers, err)
			}
			for _, id := range exps {
				r, err := beatbgp.Run(s, id)
				if err != nil {
					t.Fatalf("seed %d %s workers=%d: %v", seed, id, workers, err)
				}
				if got := r.Render(); got != want[id] {
					t.Errorf("seed %d %s: workers=%d output diverges from workers=1\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
						seed, id, workers, want[id], workers, got)
				}
			}
		}
		// Same seed, second build, serial again: the world construction
		// itself must be reproducible, not just the sweeps.
		twin, err := beatbgp.NewScenario(refCfg)
		if err != nil {
			t.Fatalf("seed %d twin: %v", seed, err)
		}
		for _, id := range exps {
			r, err := beatbgp.Run(twin, id)
			if err != nil {
				t.Fatalf("seed %d %s twin: %v", seed, id, err)
			}
			if got := r.Render(); got != want[id] {
				t.Errorf("seed %d %s: second same-seed build diverges from the first", seed, id)
			}
		}
	}
}

// TestCampaignMatchesRunAlone locks the runner-level contract: a
// campaign returns its results in the requested order, and each renders
// exactly as that experiment run alone on a fresh world of the same
// config, whatever ran beside it.
func TestCampaignMatchesRunAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario sweep")
	}
	campaign := func(cfg beatbgp.Config, ids []string) []beatbgp.Result {
		t.Helper()
		rep, err := beatbgp.RunCampaign(t.Context(), beatbgp.Campaign{Base: cfg, IDs: ids}, beatbgp.SupervisorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete() {
			t.Fatalf("campaign incomplete: %v", rep.FirstError())
		}
		return rep.FinalResults()
	}
	alone := func(cfg beatbgp.Config, id string) string {
		t.Helper()
		s, err := beatbgp.NewScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := beatbgp.Run(s, id)
		if err != nil {
			t.Fatalf("%s alone: %v", id, err)
		}
		return r.Render()
	}

	// Request order, at a worker budget above the cell count.
	ids := []string{"t32", "fig3", "t33"}
	parCfg := facadeConfig(9)
	parCfg.Workers = 8
	got := campaign(parCfg, ids)
	if len(got) != len(ids) {
		t.Fatalf("got %d results, want %d", len(got), len(ids))
	}
	for i, r := range got {
		if r.ID != ids[i] {
			t.Errorf("result %d is %q, want %q (order must match the request)", i, r.ID, ids[i])
		}
		if r.Render() != alone(facadeConfig(9), ids[i]) {
			t.Errorf("%s: campaign output diverges from the experiment run alone", ids[i])
		}
	}

	// Cell isolation: the whole registry as one seed-42 campaign — whose
	// derived-scenario cells rebuild stages beside everyone else — renders
	// every experiment exactly as that experiment run alone.
	exps := beatbgp.Experiments()
	full := campaign(facadeConfig(42), nil)
	if len(full) != len(exps) {
		t.Fatalf("campaign returned %d results, want %d", len(full), len(exps))
	}
	for i, e := range exps {
		if got, want := full[i].Render(), alone(facadeConfig(42), e.ID); got != want {
			t.Errorf("%s: campaign section differs from the experiment run alone\n--- campaign ---\n%s\n--- alone ---\n%s",
				e.ID, got, want)
		}
	}
}
