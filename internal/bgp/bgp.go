// Package bgp implements AS-level BGP route computation over a topology:
// valley-free (Gao–Rexford) propagation, the standard decision process
// (local preference by business relationship, then AS-path length, then
// deterministic tie-breaks), AS-path prepending and selective announcement
// for anycast grooming, and multi-origin announcements for anycast
// catchment computation.
//
// The engine computes, for every AS, its best route to a prefix. Alternate
// routes at a given AS — the raw material of the paper's Figure 1 — are
// derived afterwards: each neighbor offers its own best route subject to
// the export rules, exactly as real eBGP sessions would.
package bgp

import (
	"fmt"
	"math"

	"beatbgp/internal/topology"
)

// Source records how a route was learned, in decreasing preference order.
type Source int

// Route sources. Lower values are preferred (higher local preference).
const (
	SrcOrigin Source = iota
	SrcCustomer
	SrcPeer
	SrcProvider
	srcNone
)

func (s Source) String() string {
	switch s {
	case SrcOrigin:
		return "origin"
	case SrcCustomer:
		return "customer"
	case SrcPeer:
		return "peer"
	case SrcProvider:
		return "provider"
	default:
		return "none"
	}
}

// Route is one path to a prefix as seen by a specific AS.
type Route struct {
	Valid   bool
	Src     Source
	Link    int   // link over which the route was learned; -1 at the origin
	NextHop int   // neighbor AS the route was learned from; -1 at the origin
	Path    []int // AS path, self first, origin last (prepends repeat the origin)
	// Links holds the link ID of every AS-level transition along Path, in
	// order. Prepended (repeated) path entries do not consume a link, so
	// len(Links) equals the number of distinct adjacent AS pairs.
	Links []int
}

// PathLen returns the AS-path length, the BGP comparison metric.
func (r Route) PathLen() int { return len(r.Path) }

// Origin returns the originating AS, or -1 for an invalid route.
func (r Route) Origin() int {
	if !r.Valid || len(r.Path) == 0 {
		return -1
	}
	return r.Path[len(r.Path)-1]
}

// Announcement originates a prefix at an AS, with optional grooming knobs.
type Announcement struct {
	Origin  int // AS ID
	Prepend int // extra copies of the origin ASN on the announced path
	// SuppressLinks lists link IDs over which the origin does not announce
	// (selective announcement, a standard anycast grooming technique).
	SuppressLinks map[int]bool
}

// Hop is one AS's best route toward a prefix, packed into 12 bytes: the
// neighbor and link it was learned from, its AS-path length and its
// Source. Every route extends its next hop's by one hop —
// Path(v) = [v] ++ Path(NextHop) and Links(v) = [Link] ++ Links(NextHop)
// — so a table of Hops determines every path, and a RIB rebuilds paths
// only when asked. Len 0 marks an unreachable AS; an origin has NextHop
// and Link -1 and Len 1 plus its prepend count.
type Hop struct {
	NextHop, Link int32
	Len           uint16
	Src           uint8
}

// RIB holds the best route of every AS toward one prefix, as a hop table.
type RIB struct {
	topo *topology.Topo
	hops []Hop
	// down records the failed links this RIB was computed without, so
	// per-ingress re-selection (OffersTo, BestFrom) honors them too.
	down map[int]bool
	// suppressed records origin-side selective-announcement withdrawals,
	// for the same reason.
	suppressed map[int]map[int]bool // origin AS -> suppressed link IDs
}

// NewRIB assembles a RIB from a hop table, one entry per AS of the
// topology. Every reachable non-origin entry's next hop must be reachable
// with Len one less (the suffix invariant both engines guarantee); down
// and suppressed carry the same semantics as the fields ComputeWithout
// populates.
func NewRIB(t *topology.Topo, hops []Hop, down map[int]bool, suppressed map[int]map[int]bool) *RIB {
	return &RIB{topo: t, hops: hops, down: down, suppressed: suppressed}
}

// Best returns the AS's best route (Valid=false when unreachable).
func (r *RIB) Best(asID int) Route {
	h := r.hops[asID]
	switch {
	case h.Len == 0:
		return Route{}
	case h.Src == uint8(SrcOrigin):
		path := make([]int, h.Len)
		for i := range path {
			path[i] = asID
		}
		return Route{Valid: true, Src: SrcOrigin, Link: -1, NextHop: -1, Path: path}
	}
	return r.extend(asID, Source(h.Src), int(h.Link), int(h.NextHop))
}

// extend builds the route asID holds when it learns nh's best route over
// link with the given source: [asID] ++ Path(nh), [link] ++ Links(nh).
// nh must be reachable.
func (r *RIB) extend(asID int, src Source, link, nh int) Route {
	// Links(nh) has one entry per non-origin AS on nh's chain; the chain
	// is at most Len(nh) long, since each hop shortens the path by one.
	h := r.hops[nh]
	nLinks, u := 0, nh
	for i := 0; i < int(h.Len) && r.hops[u].Src != uint8(SrcOrigin); i++ {
		nLinks++
		u = int(r.hops[u].NextHop)
	}
	path := make([]int, int(h.Len)+1)
	links := make([]int, nLinks+1)
	path[0], links[0] = asID, link
	u = nh
	for i := 1; i < len(path); i++ {
		path[i] = u
		if i <= nLinks {
			links[i] = int(r.hops[u].Link)
			u = int(r.hops[u].NextHop)
		}
	}
	return Route{Valid: true, Src: src, Link: link, NextHop: nh, Path: path, Links: links}
}

// onPath reports whether asID is on v's best path, walking next hops
// without building the path.
func (r *RIB) onPath(v, asID int) bool {
	for i, n := 0, int(r.hops[v].Len); i < n; i++ {
		if v == asID {
			return true
		}
		h := r.hops[v]
		if h.Src == uint8(SrcOrigin) {
			return false
		}
		v = int(h.NextHop)
	}
	return false
}

// localPref maps a relationship view to a route source.
func srcFor(view topology.RelView) Source {
	switch view {
	case topology.ViewCustomer:
		return SrcCustomer
	case topology.ViewPeer:
		return SrcPeer
	default:
		return SrcProvider
	}
}

// homeCity returns the AS's highest-population footprint city within its
// home region (falling back to the global footprint); used for geographic
// tie-breaking, a coarse stand-in for lowest-IGP-cost / hot-potato
// tie-breaks in the real decision process.
func homeCity(t *topology.Topo, asID int) int {
	a := t.ASes[asID]
	best, bestPop := -1, -1.0
	for _, c := range a.Cities {
		city := t.Catalog.City(c)
		if city.Region != a.Region {
			continue
		}
		if city.Pop > bestPop {
			best, bestPop = c, city.Pop
		}
	}
	if best >= 0 {
		return best
	}
	for _, c := range a.Cities {
		if p := t.Catalog.City(c).Pop; p > bestPop {
			best, bestPop = c, p
		}
	}
	return best
}

// nearestInterconnectKm returns the geodesic distance from the AS's home
// city to the closest interconnection city of the link.
func nearestInterconnectKm(t *topology.Topo, asID int, link int) float64 {
	return nearestCityKm(t, homeCity(t, asID), link)
}

// nearestCityKm returns the geodesic distance from the city to the
// closest interconnection city of the link.
func nearestCityKm(t *topology.Topo, city, link int) float64 {
	best := math.Inf(1)
	for _, c := range t.Links[link].Cities {
		if d := t.Catalog.DistKm(city, c); d < best {
			best = d
		}
	}
	return best
}

// TieDistKm exposes the decision process's geographic tie-break metric —
// the distance from the AS's home city to the nearest interconnection
// city of the link — so alternate engines (internal/matbgp) can
// precompute exactly the values better() would derive on the fly.
func TieDistKm(t *topology.Topo, asID, link int) float64 {
	return nearestInterconnectKm(t, asID, link)
}

// better reports whether candidate a should replace b at the given AS,
// applying the decision process: local preference, then AS-path length,
// then nearest-exit distance, then lowest neighbor ASN.
func better(t *topology.Topo, asID int, a, b Route) bool {
	if !a.Valid {
		return false
	}
	if !b.Valid {
		return true
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	if a.Link >= 0 && b.Link >= 0 {
		da := nearestInterconnectKm(t, asID, a.Link)
		db := nearestInterconnectKm(t, asID, b.Link)
		if da != db {
			return da < db
		}
	}
	an, bn := -1, -1
	if a.NextHop >= 0 {
		an = t.ASes[a.NextHop].ASN
	}
	if b.NextHop >= 0 {
		bn = t.ASes[b.NextHop].ASN
	}
	return an < bn
}

// Compute runs route propagation for one prefix announced as described.
// Multiple announcements model anycast: every origin announces the same
// prefix and each AS converges on one of them.
func Compute(t *topology.Topo, anns []Announcement) (*RIB, error) {
	return ComputeWithout(t, anns, nil)
}

// ComputeWithout is Compute with a set of failed links excluded from
// propagation — the post-convergence routing state after those links go
// down. Pair it with ConvergenceMinutes to model the transient.
//
// Propagation converges over materialized Routes, independently of the
// hop table it returns: packing checks that every route extends its next
// hop's, so a route the hop table could not reproduce is an error, never
// silently rebuilt into a different one.
func ComputeWithout(t *topology.Topo, anns []Announcement, downLinks map[int]bool) (*RIB, error) {
	best, suppressed, err := converge(t, anns, downLinks)
	if err != nil {
		return nil, err
	}
	hops, err := pack(best)
	if err != nil {
		return nil, err
	}
	return NewRIB(t, hops, downLinks, suppressed), nil
}

// converge runs route propagation and returns every AS's best route plus
// the origins' selective-announcement suppressions.
func converge(t *topology.Topo, anns []Announcement, downLinks map[int]bool) ([]Route, map[int]map[int]bool, error) {
	n := t.NumASes()
	best := make([]Route, n)
	var supp map[int]map[int]bool
	if len(anns) == 0 {
		return nil, nil, fmt.Errorf("bgp: no announcements")
	}
	down := func(link int) bool { return downLinks != nil && downLinks[link] }

	origins := make(map[int]Announcement, len(anns))
	for _, ann := range anns {
		if ann.Origin < 0 || ann.Origin >= n {
			return nil, nil, fmt.Errorf("bgp: origin %d out of range", ann.Origin)
		}
		if _, dup := origins[ann.Origin]; dup {
			return nil, nil, fmt.Errorf("bgp: duplicate origin %d", ann.Origin)
		}
		origins[ann.Origin] = ann
		if len(ann.SuppressLinks) > 0 {
			if supp == nil {
				supp = make(map[int]map[int]bool)
			}
			supp[ann.Origin] = ann.SuppressLinks
		}
		path := make([]int, 0, ann.Prepend+1)
		for i := 0; i <= ann.Prepend; i++ {
			path = append(path, ann.Origin)
		}
		r := Route{Valid: true, Src: SrcOrigin, Link: -1, NextHop: -1, Path: path}
		if better(t, ann.Origin, r, best[ann.Origin]) {
			best[ann.Origin] = r
		}
	}

	// adopt offers route `cand` (already from the neighbor's perspective
	// rewritten for `to`) and reports whether it improved.
	adopt := func(to int, cand Route) bool {
		cur := best[to]
		if better(t, to, cand, cur) {
			best[to] = cand
			return true
		}
		// Implicit withdraw: a neighbor re-advertising over the same link
		// replaces its previous copy even when preference ties, exactly as
		// a fresh UPDATE on a real session supersedes the prior one. This
		// matters when the neighbor's own best changed only in a tie-break
		// (same source class and length): the adopter's choice is
		// unchanged, but its path suffix must track the neighbor's current
		// route, or downstream paths go stale.
		if cand.Valid && cur.Valid && cand.Src == cur.Src &&
			cand.Link == cur.Link && cand.NextHop == cur.NextHop &&
			len(cand.Path) == len(cur.Path) &&
			(!equalInts(cand.Path, cur.Path) || !equalInts(cand.Links, cur.Links)) {
			best[to] = cand
			return true
		}
		return false
	}
	// extend builds to's candidate route via neighbor nb.
	extend := func(to int, nb topology.Neighbor, from Route) Route {
		path := make([]int, 0, len(from.Path)+1)
		path = append(path, to)
		path = append(path, from.Path...)
		links := make([]int, 0, len(from.Links)+1)
		links = append(links, nb.Link)
		links = append(links, from.Links...)
		return Route{Valid: true, Src: srcFor(nb.View), Link: nb.Link, NextHop: nb.Other, Path: path, Links: links}
	}
	// suppressed reports whether the origin withholds the prefix on link.
	suppressed := func(asID, link int) bool {
		ann, isOrigin := origins[asID]
		return isOrigin && ann.SuppressLinks != nil && ann.SuppressLinks[link]
	}

	// Phase 1 — customer routes flow upward. Iterate to fixpoint in
	// rounds; each round extends paths by one provider hop, so shortest
	// paths settle first. Origin prepending is naturally accounted for
	// because path length includes the padding.
	for changed := true; changed; {
		changed = false
		for as := 0; as < n; as++ {
			r := best[as]
			if !r.Valid || r.Src > SrcCustomer {
				continue
			}
			for _, nb := range t.Neighbors(as) {
				if nb.View != topology.ViewProvider || suppressed(as, nb.Link) || down(nb.Link) || loop(r.Path, nb.Other) {
					continue
				}
				// From the provider's perspective this is a customer route.
				pnb := topology.Neighbor{Link: nb.Link, Other: as, View: topology.ViewCustomer}
				if adopt(nb.Other, extend(nb.Other, pnb, r)) {
					changed = true
				}
			}
		}
	}

	// Phase 2 — peer routes travel exactly one peer hop.
	type peerCand struct {
		to    int
		route Route
	}
	var peerCands []peerCand
	for as := 0; as < n; as++ {
		r := best[as]
		if !r.Valid || r.Src > SrcCustomer {
			continue
		}
		for _, nb := range t.Neighbors(as) {
			if nb.View != topology.ViewPeer || suppressed(as, nb.Link) || down(nb.Link) || loop(r.Path, nb.Other) {
				continue
			}
			pnb := topology.Neighbor{Link: nb.Link, Other: as, View: topology.ViewPeer}
			peerCands = append(peerCands, peerCand{nb.Other, extend(nb.Other, pnb, r)})
		}
	}
	for _, pc := range peerCands {
		adopt(pc.to, pc.route)
	}

	// Phase 3 — provider routes flow downward to customers.
	for changed := true; changed; {
		changed = false
		for as := 0; as < n; as++ {
			r := best[as]
			if !r.Valid {
				continue
			}
			for _, nb := range t.Neighbors(as) {
				if nb.View != topology.ViewCustomer || suppressed(as, nb.Link) || down(nb.Link) || loop(r.Path, nb.Other) {
					continue
				}
				cnb := topology.Neighbor{Link: nb.Link, Other: as, View: topology.ViewProvider}
				if adopt(nb.Other, extend(nb.Other, cnb, r)) {
					changed = true
				}
			}
		}
	}
	return best, supp, nil
}

// pack converts converged routes into a hop table, checking that every
// route is its next hop's route extended by one hop (and every origin
// route its own AS repeated), which is what lets a RIB rebuild paths
// from next hops.
func pack(best []Route) ([]Hop, error) {
	hops := make([]Hop, len(best))
	for v, r := range best {
		if !r.Valid {
			continue
		}
		if len(r.Path) > math.MaxUint16 {
			return nil, fmt.Errorf("bgp: AS %d path of %d hops exceeds the hop table's length field", v, len(r.Path))
		}
		if r.Src == SrcOrigin {
			if r.Link != -1 || r.NextHop != -1 || r.Links != nil || len(r.Path) == 0 || countOf(r.Path, v) != len(r.Path) {
				return nil, fmt.Errorf("bgp: AS %d origin route %+v is not its own AS repeated", v, r)
			}
			hops[v] = Hop{NextHop: -1, Link: -1, Len: uint16(len(r.Path)), Src: uint8(SrcOrigin)}
			continue
		}
		nh := r.NextHop
		if nh < 0 || nh >= len(best) || !best[nh].Valid || len(r.Path) == 0 || r.Path[0] != v ||
			!equalInts(r.Path[1:], best[nh].Path) ||
			len(r.Links) == 0 || r.Links[0] != r.Link || !equalInts(r.Links[1:], best[nh].Links) {
			return nil, fmt.Errorf("bgp: AS %d route %+v does not extend its next hop's route", v, r)
		}
		hops[v] = Hop{NextHop: int32(nh), Link: int32(r.Link), Len: uint16(len(r.Path)), Src: uint8(r.Src)}
	}
	return hops, nil
}

func countOf(s []int, x int) int {
	n := 0
	for _, v := range s {
		if v == x {
			n++
		}
	}
	return n
}

// Offer is a route a neighbor would advertise to a given AS — the AS's
// alternates, before its own decision process picks one.
type Offer struct {
	Neighbor int              // neighbor AS ID
	Link     int              // link the offer arrives over
	View     topology.RelView // my view of the neighbor
	Route    Route            // the route as adopted by me (my ASN already prepended)
}

// OffersTo returns every route asID would hear from its neighbors under
// standard export policy: a neighbor exports its best route to me if I am
// its customer, or if the route came from the neighbor's customer cone
// (origin or customer routes). The origin's own announcement suppressions
// are honored by Compute; per-neighbor suppressions at transit ASes are
// not modeled.
func (r *RIB) OffersTo(asID int) []Offer {
	var out []Offer
	for _, nb := range r.topo.Neighbors(asID) {
		if !r.exports(asID, nb) {
			continue
		}
		out = append(out, Offer{
			Neighbor: nb.Other,
			Link:     nb.Link,
			View:     nb.View,
			Route:    r.extend(asID, srcFor(nb.View), nb.Link, nb.Other),
		})
	}
	return out
}

// exports reports whether neighbor nb offers asID its best route: the
// link is up, the neighbor does not withhold the prefix on it, it has a
// route that does not already pass through asID, and export policy lets
// the route out — providers export everything to customers, peers and
// customers only their customer-cone (origin or customer) routes.
func (r *RIB) exports(asID int, nb topology.Neighbor) bool {
	if r.down != nil && r.down[nb.Link] {
		return false
	}
	if sup := r.suppressed[nb.Other]; sup != nil && sup[nb.Link] {
		// The neighbor originates this prefix but withholds it on
		// this link (selective announcement).
		return false
	}
	h := r.hops[nb.Other]
	if h.Len == 0 || r.onPath(nb.Other, asID) {
		return false
	}
	return nb.View == topology.ViewProvider || Source(h.Src) <= SrcCustomer
}

// BestFrom returns the route the AS would use for traffic entering at
// srcCity: the standard decision process, but with the geographic
// tie-break anchored at the traffic's own city instead of the AS's home
// city. This models per-ingress hot potato inside multi-city ASes — the
// mechanism that makes anycast work inside an eyeball network peering
// with a CDN at several locations. Falls back to Best when the AS hears
// no offers (e.g. it is the origin). Offers are ranked on the hop table;
// only the winner's path is built.
func (r *RIB) BestFrom(asID, srcCity int) Route {
	t := r.topo
	if h := r.hops[asID]; h.Len > 0 && h.Src == uint8(SrcOrigin) {
		return r.Best(asID)
	}
	var chosen topology.Neighbor
	chosenSrc, chosenLen, chosenDist := srcNone, 0, math.Inf(1)
	for _, nb := range t.Neighbors(asID) {
		if !r.exports(asID, nb) {
			continue
		}
		src, ln := srcFor(nb.View), int(r.hops[nb.Other].Len)+1
		cd := nearestCityKm(t, srcCity, nb.Link)
		switch {
		case chosenSrc == srcNone:
		case src != chosenSrc:
			if src > chosenSrc {
				continue
			}
		case ln != chosenLen:
			if ln > chosenLen {
				continue
			}
		case cd != chosenDist:
			if cd > chosenDist {
				continue
			}
		default:
			if t.ASes[nb.Other].ASN >= t.ASes[chosen.Other].ASN {
				continue
			}
		}
		chosen, chosenSrc, chosenLen, chosenDist = nb, src, ln, cd
	}
	if chosenSrc == srcNone {
		return r.Best(asID)
	}
	return r.extend(asID, chosenSrc, chosen.Link, chosen.Other)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func loop(path []int, asID int) bool {
	for _, p := range path {
		if p == asID {
			return true
		}
	}
	return false
}
