// Anycast CDN: the paper's §3.2 setting. Compute anycast catchments for a
// sample of clients, compare anycast latency against the best nearby
// unicast front-end, then train an LDNS-granularity DNS redirector and
// see where it helps — and where it does worse than plain anycast.
package main

import (
	"fmt"
	"log"
	"math"

	"beatbgp"
	"beatbgp/internal/cdn"
	"beatbgp/internal/netsim"
)

func main() {
	s, err := beatbgp.NewScenario(beatbgp.Config{Seed: 13})
	if err != nil {
		log.Fatal(err)
	}
	sim := netsim.New(s.Topo, s.Cfg.Net, nil, nil, nil)
	cat := s.Topo.Catalog
	const when = 10 * 60 // 10:00 simulated

	fmt.Printf("CDN has %d front-end sites\n\n", len(s.CDN.Sites))
	fmt.Printf("%-16s %-16s %10s %10s %8s\n", "client", "caught by", "any_ms", "bestuni", "diff")
	var worst struct {
		p    beatbgp.Prefix
		diff float64
	}
	worst.diff = -1
	for i, p := range s.Topo.Prefixes {
		if i%29 != 0 {
			continue
		}
		any, site, err := s.CDN.AnycastRTT(sim, p, nil, when)
		if err != nil {
			continue
		}
		best := math.Inf(1)
		for _, sx := range s.CDN.NearestSites(p, 6) {
			if rtt, err := s.CDN.UnicastRTT(sim, p, sx, when); err == nil && rtt < best {
				best = rtt
			}
		}
		if math.IsInf(best, 1) {
			continue
		}
		fmt.Printf("%-16s %-16s %10.1f %10.1f %8.1f\n",
			cat.City(p.City).Name, cat.City(s.CDN.Sites[site].City).Name, any, best, any-best)
		if any-best > worst.diff {
			worst.p, worst.diff = p, any-best
		}
	}

	// Train the redirector on day 0-1 measurements, serve on day 2.
	rd, err := cdn.TrainRedirector(s.CDN, sim, s.DNS, s.Topo.Prefixes,
		[]float64{3 * 60, 15 * 60, 27 * 60, 39 * 60}, beatbgp.TrainOpts{})
	if err != nil {
		log.Fatal(err)
	}
	evalT := 2*24*60 + 10*60
	improved, worse, n := 0, 0, 0
	for _, p := range s.Topo.Prefixes {
		any, _, err1 := s.CDN.AnycastRTT(sim, p, nil, float64(evalT))
		served, err2 := s.CDN.ServeRTT(sim, rd, s.DNS, p, float64(evalT))
		if err1 != nil || err2 != nil {
			continue
		}
		n++
		switch {
		case any-served > 1:
			improved++
		case served-any > 1:
			worse++
		}
	}
	fmt.Printf("\nDNS redirection vs anycast across %d clients: %d improved, %d worse, %d unchanged\n",
		n, improved, worse, n-improved-worse)
	if worst.diff > 0 {
		fmt.Printf("worst anycast miss: clients in %s, %.1f ms slower than their best front-end\n",
			cat.City(worst.p.City).Name, worst.diff)
	}
}
