package netsim_test

import (
	"math"
	"testing"

	"beatbgp/internal/core"
	"beatbgp/internal/faults"
	"beatbgp/internal/netpath"
	"beatbgp/internal/netsim"
	"beatbgp/internal/topology"
	"beatbgp/internal/workload"
)

// TestMinRTTsMatchPerWindow: over every route workload.Observe sprays in
// the default seed-42 and seed-7 worlds, the batch MinRTT equals the
// per-window oracle bit for bit — at the trace's own 15-minute windows
// over its whole horizon, at 7-minute windows (a probe step that is not
// an integer), with the last mile flat, and under injected storms. One
// more trace re-homes the first prefix's routes, plus a copy with no
// interdomain link, onto a vantage-point prefix ID past the topology's
// prefixes (the memo's off-table path).
func TestMinRTTsMatchPerWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two default worlds")
	}
	for _, seed := range []uint64{42, 7} {
		s, err := core.NewScenario(core.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		wl := s.Gen.Config()
		type trace struct {
			p      topology.Prefix
			routes []netpath.Route
		}
		var traces []trace
		for _, p := range s.Topo.Prefixes {
			rib, err := s.Oracle.ToPrefix(p)
			if err != nil {
				t.Fatal(err)
			}
			pop := s.Prov.ServingPoP(p.City)
			var routes []netpath.Route
			for _, ro := range workload.Egress(s.Res, pop, p, s.Prov.EgressOptions(rib, pop), wl.TopK) {
				routes = append(routes, ro.Phys)
			}
			if len(routes) > 0 {
				traces = append(traces, trace{p, routes})
			}
		}
		if len(traces) < 100 {
			t.Fatalf("seed %d: only %d observable prefixes", seed, len(traces))
		}
		vp := traces[0].p
		vp.ID = 1_000_000
		noLinks := traces[0].routes[0]
		noLinks.Links = nil
		traces = append(traces, trace{vp, append([]netpath.Route{noLinks}, traces[0].routes...)})

		storms, err := faults.Generate(s.Topo, faults.GenConfig{Seed: seed, Storms: 40})
		if err != nil {
			t.Fatal(err)
		}
		flat := s.Cfg.Net
		flat.DisableSharedFate = true
		horizon := int(float64(wl.Days) * 24 * 60 / wl.WindowMin)
		bare := netsim.New(s.Topo, s.Cfg.Net, nil, nil, nil)
		stormed := 0 // storm-run MinRTTs that differ from the bare Sim's
		for _, c := range []struct {
			name      string
			sim       *netsim.Sim
			windowMin float64
			windows   int
		}{
			{"trace", s.Sim.Clone(), wl.WindowMin, horizon},
			{"7min", s.Sim.Clone(), 7, 2 * 24 * 60 / 7},
			{"no-shared-fate", netsim.New(s.Topo, flat, nil, nil, nil), wl.WindowMin, 2 * 96},
			{"storms", netsim.New(s.Topo, s.Cfg.Net, nil, storms, nil), wl.WindowMin, 2 * 96},
		} {
			for _, tr := range traces {
				dst := minRTTs(c.sim, tr.routes, tr.p, c.windowMin, c.windows)
				if c.name == "storms" {
					for j, series := range minRTTs(bare, tr.routes, tr.p, c.windowMin, c.windows) {
						for w, v := range series {
							if v != dst[j][w] {
								stormed++
							}
						}
					}
				}
				for j, series := range dst {
					for w, got := range series {
						want := netsim.MinRTTMsPerWindow(c.sim, tr.routes[j], tr.p, float64(w)*c.windowMin, c.windowMin)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("seed %d %s: prefix %d route %d window %d: batch %v != per-window %v",
								seed, c.name, tr.p.ID, j, w, got, want)
						}
					}
				}
			}
		}
		if stormed == 0 {
			t.Fatalf("seed %d: no storm reached an observed route", seed)
		}
	}
}

// minRTTs runs the batch call over the first windows windows of each
// route.
func minRTTs(s *netsim.Sim, routes []netpath.Route, p topology.Prefix, windowMin float64, windows int) [][]float64 {
	dst := make([][]float64, len(routes))
	for j := range dst {
		dst[j] = make([]float64, windows)
	}
	s.MinRTTsMs(routes, p, windowMin, dst)
	return dst
}
