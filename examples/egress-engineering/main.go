// Egress engineering: the paper's §3.1 setting, hands-on. For a handful
// of client prefixes, list the egress routes their serving PoP holds
// (ranked by the provider's BGP policy), measure the top routes Edge
// Fabric sprays across a day, and show what an omniscient
// performance-aware controller would have gained over BGP's pick —
// usually, almost nothing.
package main

import (
	"fmt"
	"log"

	"beatbgp"
	"beatbgp/internal/workload"
)

func main() {
	s, err := beatbgp.NewScenario(beatbgp.Config{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	cat := s.Topo.Catalog

	shown := 0
	for _, p := range s.Topo.Prefixes {
		if shown >= 5 {
			break
		}
		rib, err := s.Oracle.ToPrefix(p)
		if err != nil {
			log.Fatal(err)
		}
		pop := s.Prov.ServingPoP(p.City)
		opts := s.Prov.EgressOptions(rib, pop)
		// The routes Edge Fabric sprays: the top-K resolvable ones Fig 1
		// compares.
		routes := workload.Egress(s.Res, pop, p, opts, s.Gen.Config().TopK)
		if len(opts) < 3 || len(routes) < 2 {
			continue
		}
		shown++
		fmt.Printf("\nclients in %s served from the %s PoP — %d egress routes:\n",
			cat.City(p.City).Name, cat.City(pop).Name, len(opts))

		// Measure the sprayed routes hourly across one day.
		gain := 0.0
		const samples = 24
		for hour := 0; hour < samples; hour++ {
			t := float64(hour) * 60
			preferred := s.Sim.MinRTTMs(routes[0].Phys, p, t, 15)
			best := preferred
			for _, ro := range routes[1:] {
				best = min(best, s.Sim.MinRTTMs(ro.Phys, p, t, 15))
			}
			gain += preferred - best
		}
		for i, opt := range opts {
			marker := " "
			if i == 0 {
				marker = "*" // BGP's pick
			}
			fmt.Printf("  %s [%d] %-12s via %-16s AS-path len %d\n",
				marker, i, opt.Class, s.Topo.ASes[opt.Neighbor].Name, opt.Route.PathLen())
		}
		fmt.Printf("  omniscient controller over the top %d would have saved %.2f ms on average\n",
			len(routes), gain/samples)
	}
	if shown == 0 {
		log.Fatal("no prefix with 3+ egress routes; try another seed")
	}
}
