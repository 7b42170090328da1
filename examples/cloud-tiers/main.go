// Cloud tiers: the paper's §3.3 setting. Stand up Premium (ingress near
// the client, private WAN the rest of the way) and Standard (public
// Internet to the data center) announcements, then compare ping latency
// from vantage points in a few illustrative countries — including India,
// where the public Internet's westward Tier-1 carriage beats the WAN's
// eastward trans-Pacific haul.
package main

import (
	"fmt"
	"log"

	"beatbgp"
	"beatbgp/internal/bgp"
	"beatbgp/internal/geo"
	"beatbgp/internal/measure"
	"beatbgp/internal/netpath"
)

func main() {
	s, err := beatbgp.NewScenario(beatbgp.Config{Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	premRIB, err := s.Routes.Compute([]bgp.Announcement{s.Prov.PremiumAnnouncement()})
	if err != nil {
		log.Fatal(err)
	}
	stdRIB, err := s.Routes.Compute([]bgp.Announcement{s.Prov.StandardAnnouncement()})
	if err != nil {
		log.Fatal(err)
	}
	platform := measure.New(s.Topo, s.Sim, measure.Config{Seed: 17})
	mk := func(name string, rib *bgp.RIB) measure.Target {
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
	prem, std := mk("premium", premRIB), mk("standard", stdRIB)

	want := map[string]int{"US": 2, "DE": 2, "JP": 2, "AU": 2, "IN": 3, "BR": 2}
	fmt.Printf("%-8s %-16s %10s %10s %10s\n", "country", "city", "prem_ms", "std_ms", "std-prem")
	for _, vp := range platform.VantagePoints() {
		country := s.Topo.Catalog.City(vp.City).Country
		if want[country] <= 0 {
			continue
		}
		// Apply the paper's filter: direct Premium adjacency, >=1
		// intermediate AS on the Standard path.
		pr, sr := premRIB.Best(vp.AS), stdRIB.Best(vp.AS)
		if !pr.Valid || !sr.Valid || pr.PathLen() != 2 || sr.PathLen() < 3 {
			continue
		}
		p1, err1 := platform.Ping(vp, prem, 14*60)
		p2, err2 := platform.Ping(vp, std, 14*60)
		if err1 != nil || err2 != nil {
			continue
		}
		want[country]--
		fmt.Printf("%-8s %-16s %10.1f %10.1f %+10.1f\n",
			country, s.Topo.Catalog.City(vp.City).Name, p1, p2, p2-p1)
	}
	fmt.Println("\npositive = the private WAN (Premium) is faster; India should be negative")
}
