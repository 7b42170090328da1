// Grooming: the paper's §3.2.2 open question, hands-on. Find the anycast
// site that attracts the most badly-served traffic, prepend at it, and
// watch the catchment tail move — "nurture" improving what the
// footprint's "nature" left behind.
package main

import (
	"fmt"
	"log"
	"math"

	"beatbgp"
	"beatbgp/internal/netsim"
	"beatbgp/internal/topology"
)

// tailStats measures the anycast-vs-best-unicast gap distribution under a
// grooming configuration.
func tailStats(s *beatbgp.Scenario, sim *netsim.Sim, g *beatbgp.Grooming) (p95, worst float64, worstPrefix beatbgp.Prefix, err error) {
	rib, err := s.CDN.AnycastRIB(g)
	if err != nil {
		return 0, 0, beatbgp.Prefix{}, err
	}
	const when = 9 * 60
	var diffs []float64
	worst = -1
	for _, p := range s.Topo.Prefixes {
		any, _, err := s.CDN.RTTViaRIB(sim, rib, p, when)
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
		d := any - best
		diffs = append(diffs, d)
		if d > worst {
			worst, worstPrefix = d, p
		}
	}
	if len(diffs) == 0 {
		return 0, 0, beatbgp.Prefix{}, fmt.Errorf("no measurements")
	}
	// p95 by partial sort.
	for i := 0; i < len(diffs); i++ {
		for j := i + 1; j < len(diffs); j++ {
			if diffs[j] < diffs[i] {
				diffs[i], diffs[j] = diffs[j], diffs[i]
			}
		}
	}
	return diffs[len(diffs)*95/100], worst, worstPrefix, nil
}

func main() {
	s, err := beatbgp.NewScenario(beatbgp.Config{Seed: 19})
	if err != nil {
		log.Fatal(err)
	}
	sim := netsim.New(s.Topo, s.Cfg.Net, nil, nil)
	cat := s.Topo.Catalog

	p95, worst, worstPrefix, err := tailStats(s, sim, nil)
	if err != nil {
		log.Fatal(err)
	}
	badSite, err := s.CDN.Catchment(worstPrefix, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ungroomed: p95 gap %.1f ms, worst %.1f ms (clients in %s caught by %s)\n",
		p95, worst, cat.City(worstPrefix.City).Name, cat.City(s.CDN.Sites[badSite].City).Name)

	// Groom, technique 1: prepend at the offending site so BGP sheds its
	// remote catchment — what a CDN operator would try first.
	for _, prepend := range []int{1, 2, 3} {
		g := &beatbgp.Grooming{Prepend: map[int]int{badSite: prepend}}
		p95g, worstg, _, err := tailStats(s, sim, g)
		if err != nil {
			log.Fatal(err)
		}
		newSite, err := s.CDN.Catchment(worstPrefix, g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("prepend %d at %s: p95 %.1f ms, worst %.1f ms, those clients now caught by %s\n",
			prepend, cat.City(s.CDN.Sites[badSite].City).Name, p95g, worstg,
			cat.City(s.CDN.Sites[newSite].City).Name)
	}

	// Technique 2: selective announcement — withdraw the offending site's
	// prefix from its transit providers entirely, so only locally peered
	// networks are caught there.
	suppress := map[int]bool{}
	for _, nb := range s.Topo.Neighbors(s.CDN.Sites[badSite].AS.ID) {
		if nb.View == topology.ViewProvider {
			suppress[nb.Link] = true
		}
	}
	g := &beatbgp.Grooming{Suppress: map[int]map[int]bool{badSite: suppress}}
	p95g, worstg, _, err := tailStats(s, sim, g)
	if err != nil {
		log.Fatal(err)
	}
	newSite, err := s.CDN.Catchment(worstPrefix, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("no-transit announce at %s: p95 %.1f ms, worst %.1f ms, those clients now caught by %s\n",
		cat.City(s.CDN.Sites[badSite].City).Name, p95g, worstg,
		cat.City(s.CDN.Sites[newSite].City).Name)
	fmt.Println("\ngrooming one site moves catchments but rarely fixes the tail alone —")
	fmt.Println("see the xgroom experiment for the greedy multi-site search")
}
