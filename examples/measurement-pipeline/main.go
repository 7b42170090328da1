// Measurement pipeline: the data side of DNS redirection. Run an
// Odin-style campaign (instrumented page views measuring anycast plus
// nearby unicast front-ends), inspect the per-LDNS aggregates, derive
// serving decisions from them, and see how the sampling budget changes
// what the redirector believes.
package main

import (
	"fmt"
	"log"

	"beatbgp"
	"beatbgp/internal/cdn"
	"beatbgp/internal/netsim"
	"beatbgp/internal/odin"
)

func main() {
	s, err := beatbgp.NewScenario(beatbgp.Config{Seed: 23})
	if err != nil {
		log.Fatal(err)
	}
	sim := netsim.New(s.Topo, s.Cfg.Net, nil, nil)
	rounds := []float64{3 * 60, 10 * 60, 15 * 60, 21 * 60}

	for _, rate := range []float64{0.002, 0.02} {
		pipeline := odin.New(s.CDN, s.DNS, sim, odin.Config{Seed: 23, SampleRate: rate})
		agg, err := pipeline.Collect(s.Topo.Prefixes, rounds)
		if err != nil {
			log.Fatal(err)
		}
		decisions := odin.Decide(agg, 3, 0)
		overrides := 0
		for _, choice := range decisions {
			if choice != cdn.AnycastChoice {
				overrides++
			}
		}
		fmt.Printf("sample rate %.3f: %6d reports, %3d resolvers measured, %3d overriding anycast\n",
			rate, agg.Samples(), len(decisions), overrides)

		// Peek at one well-measured resolver's view of the world.
		bestResolver, bestN := -1, 0
		for r := range decisions {
			if _, n, ok := agg.Estimate(r, cdn.AnycastChoice); ok && n > bestN {
				bestResolver, bestN = r, n
			}
		}
		if bestResolver >= 0 {
			fmt.Printf("  resolver %d estimates (n=%d):\n", bestResolver, bestN)
			for _, ep := range agg.Endpoints(bestResolver) {
				med, n, _ := agg.Estimate(bestResolver, ep)
				name := "anycast"
				if ep != cdn.AnycastChoice {
					name = s.Topo.Catalog.City(s.CDN.Sites[ep].City).Name
				}
				fmt.Printf("    %-14s %6.1f ms (n=%d)\n", name, med, n)
			}
		}
	}
	fmt.Println("\nmore budget, more confident overrides — and fewer mispredictions (see -exp xodin)")
}
