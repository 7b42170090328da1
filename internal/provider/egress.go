package provider

import (
	"fmt"
	"math"
	"sort"

	"beatbgp/internal/bgp"
	"beatbgp/internal/netpath"
)

// EgressOption is one route a PoP could use to reach a prefix — the unit
// of choice in the paper's §3.1 Edge-Fabric setting.
type EgressOption struct {
	Link     int
	Neighbor int
	Class    RouteClass
	Route    bgp.Route // full route with the provider prepended
}

// EgressOptions returns the routes available at a PoP toward the prefix
// whose RIB is given, ordered by the provider's BGP policy: PNIs first,
// then public peers, then transit; within a class, shorter AS paths and
// then lower neighbor ASNs. Index 0 is what performance-agnostic BGP
// would pick. Parallel links to the same neighbor are deduplicated.
func (p *Provider) EgressOptions(rib *bgp.RIB, popCity int) []EgressOption {
	t := p.Topo
	var out []EgressOption
	seen := make(map[int]bool)
	for _, off := range rib.OffersTo(p.AS.ID) {
		class, ok := p.classes[off.Link]
		if !ok {
			continue
		}
		at := false
		for _, c := range t.Links[off.Link].Cities {
			if c == popCity {
				at = true
				break
			}
		}
		if !at || seen[off.Neighbor] {
			continue
		}
		seen[off.Neighbor] = true
		out = append(out, EgressOption{
			Link:     off.Link,
			Neighbor: off.Neighbor,
			Class:    class,
			Route:    off.Route,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Route.PathLen() != b.Route.PathLen() {
			return a.Route.PathLen() < b.Route.PathLen()
		}
		return t.ASes[a.Neighbor].ASN < t.ASes[b.Neighbor].ASN
	})
	return out
}

// SurvivingOptions appends to dst the options of opts whose routes avoid
// every link the predicate reports down, preserving policy order, and
// returns the extended slice; callers reuse one buffer across calls by
// passing buf[:0]. This is the Edge-Fabric-style override under faults:
// when the BGP-preferred option (index 0) dies, the controller shifts
// traffic to the best surviving alternative instead of blackholing
// through convergence.
func SurvivingOptions(dst, opts []EgressOption, down func(linkID int) bool) []EgressOption {
	for _, o := range opts {
		ok := !down(o.Link)
		for _, l := range o.Route.Links {
			if !ok || down(l) {
				ok = false
				break
			}
		}
		if ok {
			dst = append(dst, o)
		}
	}
	return dst
}

// PremiumAnnouncement announces the provider's prefix over every link:
// ingress near the client, WAN carriage the rest of the way.
func (p *Provider) PremiumAnnouncement() bgp.Announcement {
	return bgp.Announcement{Origin: p.AS.ID}
}

// StandardAnnouncement announces only over the DC-local transit links, so
// traffic enters and exits near the data center and crosses the public
// Internet the rest of the way — the paper's Standard tier.
func (p *Provider) StandardAnnouncement() bgp.Announcement {
	suppress := make(map[int]bool)
	dcLocal := make(map[int]bool, len(p.dcTransitLinks))
	for _, l := range p.dcTransitLinks {
		dcLocal[l] = true
	}
	for l := range p.classes {
		if !dcLocal[l] {
			suppress[l] = true
		}
	}
	return bgp.Announcement{Origin: p.AS.ID, SuppressLinks: suppress}
}

// EntryAndWAN resolves the public-Internet part of a route that
// terminates at the provider, returning the resolved public path, the
// city where traffic enters the provider, and the provider-internal WAN
// kilometers from that entry to the data center.
func (p *Provider) EntryAndWAN(res *netpath.Resolver, route bgp.Route, srcCity int) (public netpath.Route, entry int, wanKm float64, err error) {
	if route.Origin() != p.AS.ID {
		return netpath.Route{}, -1, 0, fmt.Errorf("provider: route does not terminate at %s", p.AS.Name)
	}
	public, err = res.ResolveEntry(route, srcCity)
	if err != nil {
		return netpath.Route{}, -1, 0, err
	}
	entry = public.DstCity
	wanKm = p.AS.Net.DistKm(entry, p.DC)
	if math.IsInf(wanKm, 1) {
		return netpath.Route{}, -1, 0, fmt.Errorf("provider: no WAN path from entry %d to DC", entry)
	}
	return public, entry, wanKm, nil
}
