// Command topogen generates a topology (plus the content provider and CDN
// overlays) and prints a structural summary: AS counts by class,
// relationship counts, footprint sizes, PoP and site placement, and
// degree/path statistics. Useful for eyeballing a scenario before running
// experiments on it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"beatbgp"
	"beatbgp/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	var (
		seed     = fs.Uint64("seed", 42, "generation seed")
		eyeballs = fs.Int("eyeballs", 0, "eyeball ASes per region (default 20)")
		routes   = fs.Bool("routes", false, "also compute a sample of BGP routes and print path-length stats")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Reject bad flags before the expensive scenario build.
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (flags only)", fs.Args())
	}
	if *eyeballs < 0 {
		return fmt.Errorf("-eyeballs must be non-negative")
	}

	cfg := beatbgp.Config{Seed: *seed}
	if *eyeballs > 0 {
		cfg.Topology.EyeballsPerRegion = *eyeballs
	}
	s, err := beatbgp.NewScenario(cfg)
	if err != nil {
		return err
	}
	t := s.Topo

	byClass := map[topology.Class]int{}
	for _, a := range t.ASes {
		byClass[a.Class]++
	}
	fmt.Printf("cities: %d  physical segments: %d\n", t.Catalog.Len(), t.Graph.NumEdges())
	fmt.Printf("ASes: %d  (tier1 %d, transit %d, eyeball %d, content %d)\n",
		t.NumASes(), byClass[topology.Tier1], byClass[topology.Transit],
		byClass[topology.Eyeball], byClass[topology.Content])
	c2p, p2p, pni := 0, 0, 0
	for _, l := range t.Links {
		switch {
		case l.Rel == topology.C2P:
			c2p++
		case l.Private:
			pni++
		default:
			p2p++
		}
	}
	fmt.Printf("links: %d  (customer-provider %d, public peering %d, PNIs %d)\n",
		len(t.Links), c2p, p2p, pni)
	fmt.Printf("prefixes: %d (CIDRs %s .. %s)\n", len(t.Prefixes),
		t.Prefixes[0].CIDR, t.Prefixes[len(t.Prefixes)-1].CIDR)

	fmt.Printf("\nprovider %s: %d PoPs, DC at %s\n",
		s.Prov.AS.Name, len(s.Prov.PoPs), t.Catalog.City(s.Prov.DC).Name)
	var popNames []string
	for _, c := range s.Prov.PoPs {
		popNames = append(popNames, t.Catalog.City(c).Name)
	}
	sort.Strings(popNames)
	fmt.Printf("  PoPs: %v\n", popNames)

	var siteNames []string
	for _, site := range s.CDN.Sites {
		siteNames = append(siteNames, t.Catalog.City(site.City).Name)
	}
	sort.Strings(siteNames)
	fmt.Printf("cdn: %d sites: %v\n", len(s.CDN.Sites), siteNames)

	if *routes {
		lens := map[int]int{}
		for i, p := range t.Prefixes {
			if i%7 != 0 {
				continue
			}
			rib, err := s.Oracle.ToPrefix(p)
			if err != nil {
				return err
			}
			for as := 0; as < t.NumASes(); as++ {
				if r := rib.Best(as); r.Valid {
					lens[r.PathLen()]++
				}
			}
		}
		fmt.Println("\nsampled AS-path length distribution:")
		var keys []int
		for k := range lens {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			fmt.Printf("  len %d: %d routes\n", k, lens[k])
		}
	}
	return nil
}
