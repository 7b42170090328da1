// Egress engineering: the paper's §3.1 setting, hands-on. For a handful
// of client prefixes, list the egress routes their serving PoP holds
// (ranked by the provider's BGP policy), measure each route across a day,
// and show what an omniscient performance-aware controller would have
// gained over BGP's pick — usually, almost nothing.
package main

import (
	"fmt"
	"log"

	"beatbgp"
	"beatbgp/internal/netsim"
)

func main() {
	s, err := beatbgp.NewScenario(beatbgp.Config{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	sim := netsim.New(s.Topo, s.Cfg.Net, nil, nil)
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
		if len(opts) < 3 {
			continue
		}
		shown++
		fmt.Printf("\nclients in %s served from the %s PoP — %d egress routes:\n",
			cat.City(p.City).Name, cat.City(pop).Name, len(opts))

		// Measure each route hourly across one day.
		gain := 0.0
		const samples = 24
		for hour := 0; hour < samples; hour++ {
			t := float64(hour) * 60
			best, preferred := -1.0, -1.0
			for i, opt := range opts {
				phys, err := s.Res.ResolvePinned(opt.Route, pop, p.City, pop)
				if err != nil {
					continue
				}
				rtt := sim.MinRTTMs(phys, p, t, 15)
				if i == 0 {
					preferred = rtt
				}
				if best < 0 || rtt < best {
					best = rtt
				}
			}
			if preferred >= 0 && best >= 0 {
				gain += preferred - best
			}
		}
		for i, opt := range opts {
			marker := " "
			if i == 0 {
				marker = "*" // BGP's pick
			}
			fmt.Printf("  %s [%d] %-12s via %-16s AS-path len %d\n",
				marker, i, opt.Class, s.Topo.ASes[opt.Neighbor].Name, opt.Route.PathLen())
		}
		fmt.Printf("  omniscient controller would have saved %.2f ms on average\n",
			gain/samples)
	}
	if shown == 0 {
		log.Fatal("no prefix with 3+ egress routes; try another seed")
	}
}
