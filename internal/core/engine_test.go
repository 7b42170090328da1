package core

import (
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/topology"
)

// TestReferenceEngineRendersIdentically is the cross-engine gate: every
// experiment rendered on the recursive reference engine must match the
// production batch engine (matbgp) byte for byte. The reference arm swaps
// lowerRoutes for the whole test, so scenarios the experiments derive
// re-lower on the reference too. No core test runs in parallel, so the
// swap cannot leak into another test.
func TestReferenceEngineRendersIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario sweep")
	}
	seeds := []uint64{42, 7}
	exps := []string{"fig1", "fig3", "fig5", "xdetect", "xflap"}
	config := func(seed uint64, workers int) Config {
		cfg := Config{Seed: seed, Workers: workers}
		cfg.Topology.EyeballsPerRegion = 6
		cfg.Workload.Days = 2
		return cfg
	}
	render := func(s *Scenario, seed uint64, engine string) map[string]string {
		out := make(map[string]string, len(exps))
		for _, id := range exps {
			r, err := RunByID(s, id)
			if err != nil {
				t.Fatalf("seed %d %s engine=%s: %v", seed, id, engine, err)
			}
			out[id] = r.Render()
		}
		return out
	}

	want := make(map[uint64]map[string]string, len(seeds))
	for _, seed := range seeds {
		s, err := NewScenario(config(seed, 1))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want[seed] = render(s, seed, "matbgp")
	}

	prev := lowerRoutes
	t.Cleanup(func() { lowerRoutes = prev })
	lowerRoutes = func(topo *topology.Topo) (bgp.Computer, error) { return bgp.NewReference(topo), nil }

	for _, seed := range seeds {
		s, err := NewScenario(config(seed, 2))
		if err != nil {
			t.Fatalf("seed %d engine=reference: %v", seed, err)
		}
		if _, ok := s.Routes.(*bgp.Reference); !ok {
			t.Fatalf("seed %d: Scenario.Routes is %T, want *bgp.Reference", seed, s.Routes)
		}
		if _, ok := s.CDN.Routes().(*bgp.Reference); !ok {
			t.Fatalf("seed %d: CDN.Routes() is %T, want *bgp.Reference", seed, s.CDN.Routes())
		}
		got := render(s, seed, "reference")
		for _, id := range exps {
			if got[id] != want[seed][id] {
				t.Errorf("seed %d %s: reference engine output diverges from matbgp\n--- matbgp ---\n%s\n--- reference ---\n%s",
					seed, id, want[seed][id], got[id])
			}
		}
	}
}
