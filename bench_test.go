package beatbgp_test

// The benchmark harness regenerates every table and figure of the paper:
// one benchmark per artifact, each printing the regenerated rows/series
// (once) alongside the timing. Run with:
//
//	go test -bench=. -benchmem
//
// All benchmarks share one default scenario (seed 42), exactly what
// `cmd/beatbgp` builds, so the printed numbers match the CLI's output and
// the values recorded in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"beatbgp"
)

var (
	scenarioOnce sync.Once
	scenarioVal  *beatbgp.Scenario
	scenarioErr  error

	printMu sync.Mutex
	printed = map[string]bool{}
)

func sharedScenario(b *testing.B) *beatbgp.Scenario {
	b.Helper()
	scenarioOnce.Do(func() {
		scenarioVal, scenarioErr = beatbgp.NewScenario(beatbgp.Config{Seed: 42})
	})
	if scenarioErr != nil {
		b.Fatal(scenarioErr)
	}
	return scenarioVal
}

// benchExperiment runs one experiment per iteration and prints its output
// the first time it completes.
func benchExperiment(b *testing.B, id string) {
	s := sharedScenario(b)
	var res beatbgp.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = beatbgp.Run(s, id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printMu.Lock()
	defer printMu.Unlock()
	if !printed[id] {
		printed[id] = true
		fmt.Print(res.Render())
	}
}

// Figures.

func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5") }

// In-text tables.

func BenchmarkTableS31(b *testing.B)     { benchExperiment(b, "t31") }
func BenchmarkTableS311(b *testing.B)    { benchExperiment(b, "t311") }
func BenchmarkTableS32(b *testing.B)     { benchExperiment(b, "t32") }
func BenchmarkTableS33(b *testing.B)     { benchExperiment(b, "t33") }
func BenchmarkTableGoodput(b *testing.B) { benchExperiment(b, "t4g") }

// Open-question studies (§3.1.3, §3.2.2, §3.3.2, §4).

func BenchmarkPeeringReduction(b *testing.B)   { benchExperiment(b, "xpeer") }
func BenchmarkGrooming(b *testing.B)           { benchExperiment(b, "xgroom") }
func BenchmarkSingleWAN(b *testing.B)          { benchExperiment(b, "xwan") }
func BenchmarkSplitTCP(b *testing.B)           { benchExperiment(b, "xsplit") }
func BenchmarkRouteDiversity(b *testing.B)     { benchExperiment(b, "xdiv") }
func BenchmarkCapacity(b *testing.B)           { benchExperiment(b, "xcap") }
func BenchmarkSiteOutage(b *testing.B)         { benchExperiment(b, "xdyn") }
func BenchmarkFaultStudy(b *testing.B)         { benchExperiment(b, "xfaults") }
func BenchmarkFaultAvailability(b *testing.B)  { benchExperiment(b, "xavail") }
func BenchmarkDetectionStudy(b *testing.B)     { benchExperiment(b, "xdetect") }
func BenchmarkFlapStorm(b *testing.B)          { benchExperiment(b, "xflap") }
func BenchmarkHybrid(b *testing.B)             { benchExperiment(b, "xhybrid") }
func BenchmarkOdin(b *testing.B)               { benchExperiment(b, "xodin") }
func BenchmarkSiteDensity(b *testing.B)        { benchExperiment(b, "xsites") }
func BenchmarkCatchmentInference(b *testing.B) { benchExperiment(b, "xinfer") }
func BenchmarkCorridor(b *testing.B)           { benchExperiment(b, "xcorridor") }
func BenchmarkQoE(b *testing.B)                { benchExperiment(b, "xqoe") }

// Ablations of the design choices DESIGN.md calls out.

func BenchmarkAblationSharedFate(b *testing.B) { benchExperiment(b, "afate") }
func BenchmarkAblationECS(b *testing.B)        { benchExperiment(b, "aecs") }
func BenchmarkAblationPNI(b *testing.B)        { benchExperiment(b, "apni") }

// BenchmarkScenarioBuild measures world construction alone.
func BenchmarkScenarioBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := beatbgp.NewScenario(beatbgp.Config{Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioDerive measures a Net-only derived build on a fixed
// base world: the topology, provider, CDN, DNS mapping, oracle, and
// resolver are shared by pointer, so each iteration pays only for the
// fresh simulator and workload generator. Compare against
// BenchmarkScenarioBuild for the sweep-path win the build graph buys.
func BenchmarkScenarioDerive(b *testing.B) {
	base, err := beatbgp.NewScenario(beatbgp.Config{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := base.Derive(context.Background(), func(c *beatbgp.Config) { c.Net.DisableSharedFate = true })
		if err != nil {
			b.Fatal(err)
		}
	}
}
