// Command probesim demonstrates the measurement-platform substrate: it
// stands up the cloud provider's Premium and Standard tier targets and
// issues Speedchecker-style pings and traceroutes from a day's rotation of
// vantage points, printing per-VP results and the credit bill.
package main

import (
	"flag"
	"fmt"
	"os"

	"beatbgp"
	"beatbgp/internal/bgp"
	"beatbgp/internal/geo"
	"beatbgp/internal/measure"
	"beatbgp/internal/netpath"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "probesim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed  = flag.Uint64("seed", 42, "scenario seed")
		n     = flag.Int("n", 12, "vantage points to probe")
		day   = flag.Int("day", 0, "rotation day")
		trace = flag.Bool("trace", false, "print a full city-level traceroute for the first vantage point")
	)
	flag.Parse()

	// Reject bad flags before the expensive scenario build.
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (flags only)", flag.Args())
	}
	if *n <= 0 {
		return fmt.Errorf("-n must be positive")
	}
	if *day < 0 {
		return fmt.Errorf("-day must be non-negative")
	}

	s, err := beatbgp.NewScenario(beatbgp.Config{Seed: *seed})
	if err != nil {
		return err
	}
	premRIB, err := s.Routes.Compute([]bgp.Announcement{s.Prov.PremiumAnnouncement()})
	if err != nil {
		return err
	}
	stdRIB, err := s.Routes.Compute([]bgp.Announcement{s.Prov.StandardAnnouncement()})
	if err != nil {
		return err
	}
	platform := measure.New(s.Topo, s.Sim, measure.Config{Seed: *seed})
	target := func(name string, rib *bgp.RIB) measure.Target {
		return measure.Target{
			Name: name,
			Route: func(vp measure.VantagePoint) (netpath.Route, error) {
				r := rib.Best(vp.AS)
				if !r.Valid {
					return netpath.Route{}, fmt.Errorf("unreachable")
				}
				public, _, _, err := s.Prov.EntryAndWAN(s.Res, r, vp.City)
				return public, err
			},
			ExtraRTTMs: func(vp measure.VantagePoint) float64 {
				r := rib.Best(vp.AS)
				if !r.Valid {
					return 0
				}
				if _, _, wanKm, err := s.Prov.EntryAndWAN(s.Res, r, vp.City); err == nil {
					return wanKm * geo.FiberRTTMsPerKm
				}
				return 0
			},
		}
	}
	prem := target("premium", premRIB)
	std := target("standard", stdRIB)

	fmt.Printf("%-6s %-16s %-14s %10s %10s %12s\n",
		"vp", "city", "as", "prem_ms", "std_ms", "prem_ingress")
	probed := 0
	for _, vp := range platform.Rotation(*day, 4**n) {
		if probed >= *n {
			break
		}
		p1, err1 := platform.Ping(vp, prem, 9*60)
		p2, err2 := platform.Ping(vp, std, 9*60)
		if err1 != nil || err2 != nil {
			continue
		}
		tr, err := platform.Traceroute(vp, prem)
		ingress := "?"
		if err == nil && tr.IngressKnown {
			ingress = fmt.Sprintf("%.0fkm", tr.IngressDistKm)
		}
		fmt.Printf("vp%-4d %-16s %-14s %10.1f %10.1f %12s\n",
			vp.ID, s.Topo.Catalog.City(vp.City).Name, s.Topo.ASes[vp.AS].Name, p1, p2, ingress)
		if *trace && probed == 0 {
			if res, err := platform.Traceroute(vp, prem); err == nil {
				fmt.Printf("  traceroute (premium) from %s:\n", s.Topo.Catalog.City(vp.City).Name)
				acc := 0.0
				for i, h := range res.Route.Hops {
					acc += h.Km
					fmt.Printf("    %2d  %-14s %-16s -> %-16s %8.0f km  ~%.1f ms\n",
						i+1, s.Topo.ASes[h.AS].Name,
						s.Topo.Catalog.City(h.Ingress).Name, s.Topo.Catalog.City(h.Egress).Name,
						h.Km, acc*0.01)
				}
			}
		}
		probed++
	}
	fmt.Printf("\ncredits used: %d\n", platform.CreditsUsed())
	return nil
}
