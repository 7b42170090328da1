package beatbgp_test

import (
	"strings"
	"testing"

	"beatbgp"
)

// facadeConfig keeps the public-API tests fast.
func facadeConfig(seed uint64) beatbgp.Config {
	cfg := beatbgp.Config{Seed: seed}
	cfg.Topology.EyeballsPerRegion = 6
	cfg.Workload.Days = 2
	return cfg
}

func TestFacadeQuickstart(t *testing.T) {
	s, err := beatbgp.NewScenario(facadeConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := beatbgp.Run(s, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "fig2" || len(res.Series) == 0 || len(res.Tables) == 0 {
		t.Fatalf("unexpected result shape: %+v", res.ID)
	}
	if !strings.Contains(res.Render(), "fig2") {
		t.Fatal("render missing experiment ID")
	}
}

func TestFacadeRegistry(t *testing.T) {
	exps := beatbgp.Experiments()
	if len(exps) < 15 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		ids[e.ID] = true
	}
	for _, want := range []string{"fig1", "fig2", "fig3", "fig4", "fig5"} {
		if !ids[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestFacadeUnknownExperiment(t *testing.T) {
	s, err := beatbgp.NewScenario(facadeConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := beatbgp.Run(s, "figure-nothing"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFacadeScenarioExposesSubstrates(t *testing.T) {
	s, err := beatbgp.NewScenario(facadeConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if s.Topo == nil || s.Prov == nil || s.CDN == nil || s.DNS == nil || s.Sim == nil {
		t.Fatal("scenario does not expose its substrates")
	}
	if len(s.Prov.PoPs) == 0 || len(s.CDN.Sites) == 0 {
		t.Fatal("provider/CDN not built")
	}
	// The facade's route-class constants must match the provider package.
	if beatbgp.ClassPNI.String() != "pni" || beatbgp.ClassTransit.String() != "transit" {
		t.Fatal("route class aliases broken")
	}
}

// TestRunSeveralOnOneScenario: experiments run one after another on one
// scenario, sharing its lazily built state.
func TestRunSeveralOnOneScenario(t *testing.T) {
	s, err := beatbgp.NewScenario(facadeConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"t32", "fig3", "t33"} {
		if _, err := beatbgp.Run(s, id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}
