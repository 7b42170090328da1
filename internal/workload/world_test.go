package workload_test

import (
	"math"
	"reflect"
	"testing"

	"beatbgp/internal/core"
	"beatbgp/internal/workload"
)

// TestObserveMatchesSortedExp: every trace of the default seed-42 and
// seed-7 worlds (each prefix at its serving PoP) equals, bit for bit,
// the trace the sort-based oracle draws from the same streams.
func TestObserveMatchesSortedExp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two default worlds")
	}
	for _, seed := range []uint64{42, 7} {
		s, err := core.NewScenario(core.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		gen := s.Gen.WithSim(s.Sim.Clone())
		traces := 0
		for _, p := range s.Topo.Prefixes {
			rib, err := s.Oracle.ToPrefix(p)
			if err != nil {
				t.Fatal(err)
			}
			pop := s.Prov.ServingPoP(p.City)
			opts := s.Prov.EgressOptions(rib, pop)
			got, gotErr := gen.Observe(pop, p, opts)
			want, wantErr := workload.ObserveSorted(gen, pop, p, opts)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d prefix %d: Observe error %v, oracle error %v", seed, p.ID, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			traces++
			for w := range want.Windows {
				for j, v := range want.Windows[w].MedianMinRTTMs {
					if g := got.Windows[w].MedianMinRTTMs[j]; math.Float64bits(g) != math.Float64bits(v) {
						t.Fatalf("seed %d prefix %d window %d route %d: median %v, oracle %v", seed, p.ID, w, j, g, v)
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d prefix %d: trace differs from the oracle's", seed, p.ID)
			}
		}
		if traces < 100 {
			t.Fatalf("seed %d: only %d observable prefixes", seed, traces)
		}
	}
}
