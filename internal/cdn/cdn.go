// Package cdn models the anycast CDN of the paper's §2.3.2/§3.2: a few
// dozen front-end sites, each an independently connected stub network
// announcing a shared anycast prefix, so BGP — not the operator — decides
// which site a client reaches. Unicast routes to individual sites, DNS
// redirection at LDNS granularity, and anycast grooming (prepending and
// selective announcement) are built on top.
//
// Sites are modeled as separate ASes because that is what makes anycast
// catchments interesting: each site's announcement competes in BGP, and a
// transit network's decision process can steer a whole customer cone to a
// distant site — the pathology behind Figure 3's tail.
package cdn

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"beatbgp/internal/bgp"
	"beatbgp/internal/geo"
	"beatbgp/internal/netpath"
	"beatbgp/internal/netsim"
	"beatbgp/internal/par"
	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

// Config tunes CDN construction. Zero value gets defaults.
type Config struct {
	Seed uint64

	// SitesPerRegion places front-ends at each region's biggest cities.
	// The default gives 28 sites concentrated in North America and
	// Europe, like the 2015 deployment the paper analyzed.
	SitesPerRegion map[geo.Region]int

	TransitsPerSite int     // Tier-1 transit contracts per site (default 2)
	EyeballPeerProb float64 // peering probability with co-located eyeballs (default 0.6)
	TransitPeerProb float64 // peering probability with co-located regional transits (default 0.7)
	ServerMs        float64 // server processing time added to every request (default 0.5)
	BaseASN         int     // first site ASN (default 65000)
}

// Validate rejects nonsensical parameters. Zero values are fine (they
// select defaults).
func (c *Config) Validate() error {
	if c.TransitsPerSite < 0 || c.BaseASN < 0 {
		return fmt.Errorf("cdn: TransitsPerSite/BaseASN must be non-negative")
	}
	for region, n := range c.SitesPerRegion {
		if n < 0 {
			return fmt.Errorf("cdn: SitesPerRegion[%v] = %d must be non-negative", region, n)
		}
	}
	for name, v := range map[string]float64{
		"EyeballPeerProb": c.EyeballPeerProb, "TransitPeerProb": c.TransitPeerProb,
	} {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("cdn: %s = %v must be a probability in [0, 1]", name, v)
		}
	}
	if math.IsNaN(c.ServerMs) || math.IsInf(c.ServerMs, 0) || c.ServerMs < 0 {
		return fmt.Errorf("cdn: ServerMs = %v must be finite and non-negative", c.ServerMs)
	}
	return nil
}

func (c *Config) setDefaults() {
	if c.SitesPerRegion == nil {
		c.SitesPerRegion = map[geo.Region]int{
			geo.NorthAmerica: 10,
			geo.Europe:       9,
			geo.Asia:         4,
			geo.SouthAmerica: 2,
			geo.MiddleEast:   1,
			geo.Africa:       1,
			geo.Oceania:      1,
		}
	}
	if c.TransitsPerSite == 0 {
		c.TransitsPerSite = 2
	}
	if c.EyeballPeerProb == 0 {
		c.EyeballPeerProb = 0.6
	}
	if c.TransitPeerProb == 0 {
		c.TransitPeerProb = 0.75
	}
	if c.ServerMs == 0 {
		c.ServerMs = 0.5
	}
	if c.BaseASN == 0 {
		c.BaseASN = 65000
	}
}

// Site is one front-end location.
type Site struct {
	Index int
	AS    *topology.AS
	City  int
}

// CDN is a constructed anycast CDN.
//
// Query methods (Catchment, UnicastRTT, AnycastRTT, RTTViaRIB, ...) are
// safe from any number of goroutines once construction is done: the RIB
// caches are guarded, and each cached RIB is a pure function of the
// announcement set, so answers never depend on interleaving. Parallel
// sweeps should PrimeRIBs first so workers find warm, read-only entries.
type CDN struct {
	Topo     *topology.Topo
	Sites    []Site
	ServerMs float64

	siteByAS map[int]int
	resolver *netpath.Resolver
	comp     bgp.Computer

	// cache memoizes the all-links-up RIBs and resolved unicast routes;
	// every epoch view of this CDN (WithEpochs) shares it.
	cache *ribCache

	// anycastAt is the ungroomed anycast repair chain over the epoch
	// sequence this view is bound to (epoch.go); nil on a built CDN.
	anycastAt *bgp.EpochChain
}

// ribCache holds the CDN's memoized routing state. Every entry is a pure
// function of the topology and announcement set, so the first-installed
// value is kept and racing duplicates are discarded.
type ribCache struct {
	mu      sync.RWMutex
	anycast *bgp.RIB   // ungroomed anycast
	unicast []*bgp.RIB // per site

	// phys memoizes each prefix's resolved physical route to each site,
	// keyed site<<32|prefixID. Unicast routes are time-invariant (only
	// link latencies move), so the walk and resolution happen once per
	// (site, prefix) instead of once per RTT sample.
	physMu sync.RWMutex
	phys   map[int64]netpath.Route
}

// Build places the CDN's site ASes into the topology (mutating it), then
// lowers the route engine behind the RIB caches from the finished
// topology with lower. Engines are interchangeable by contract
// (bit-identical RIBs; see bgp.Computer), so lower picks speed, never
// answers.
func Build(t *topology.Topo, cfg Config, lower func(*topology.Topo) (bgp.Computer, error)) (*CDN, error) {
	cfg.setDefaults()
	rng := xrand.New(cfg.Seed ^ 0xCD4)
	c := &CDN{
		Topo:     t,
		ServerMs: cfg.ServerMs,
		siteByAS: make(map[int]int),
		resolver: netpath.NewResolver(t),
		cache:    &ribCache{phys: make(map[int64]netpath.Route)},
	}
	catalog := t.Catalog
	asn := cfg.BaseASN
	// The CDN signs global transit contracts: every site buys from the
	// same few Tier-1s wherever they are present. This is what real CDNs
	// do, and it is load-bearing for anycast quality: a carrier that
	// serves most sites as customers hot-potatoes each flow to the
	// nearest one, while scattered per-site contracts strand a carrier's
	// whole cone on whichever remote site happens to be its customer.
	t1s := t.ByClass(topology.Tier1)
	var contracted []int
	for _, idx := range rng.Perm(len(t1s)) {
		if len(contracted) >= 3 {
			break
		}
		contracted = append(contracted, t1s[idx])
	}
	for _, region := range geo.Regions() {
		n := cfg.SitesPerRegion[region]
		if n <= 0 {
			continue
		}
		ids := catalog.InRegion(region)
		sort.Slice(ids, func(i, j int) bool {
			a, b := catalog.City(ids[i]), catalog.City(ids[j])
			if a.Pop != b.Pop {
				return a.Pop > b.Pop
			}
			return ids[i] < ids[j]
		})
		if n > len(ids) {
			n = len(ids)
		}
		for _, city := range ids[:n] {
			as, err := t.AddAS(asn, fmt.Sprintf("FE-%s", catalog.City(city).Name),
				topology.Content, region, []int{city}, 1.0, topology.EarlyExit)
			if err != nil {
				return nil, err
			}
			asn++
			site := Site{Index: len(c.Sites), AS: as, City: city}
			c.Sites = append(c.Sites, site)
			c.siteByAS[as.ID] = site.Index

			// Transit at the site city: the CDN's contracted Tier-1s when
			// present, then other Tier-1s, then regional transits
			// (smaller markets rarely host a Tier-1 PoP, and real CDN
			// sites buy from whoever is in the building).
			bought := 0
			for _, t1 := range contracted {
				if bought >= cfg.TransitsPerSite {
					break
				}
				if !t.ASes[t1].Net.Present(city) {
					continue
				}
				if _, err := t.Connect(as.ID, t1, topology.C2P, []int{city}, false); err != nil {
					return nil, err
				}
				bought++
			}
			if bought < cfg.TransitsPerSite {
				for _, idx := range rng.Perm(len(t1s)) {
					if bought >= cfg.TransitsPerSite {
						break
					}
					t1 := t1s[idx]
					if !t.ASes[t1].Net.Present(city) || isContracted(contracted, t1) {
						continue
					}
					if _, err := t.Connect(as.ID, t1, topology.C2P, []int{city}, false); err != nil {
						return nil, err
					}
					bought++
				}
			}
			if bought < cfg.TransitsPerSite {
				trs := t.ByClass(topology.Transit)
				for _, idx := range rng.Perm(len(trs)) {
					if bought >= cfg.TransitsPerSite {
						break
					}
					if !t.ASes[trs[idx]].Net.Present(city) {
						continue
					}
					if _, err := t.Connect(as.ID, trs[idx], topology.C2P, []int{city}, false); err != nil {
						return nil, err
					}
					bought++
				}
			}
			if bought == 0 {
				return nil, fmt.Errorf("cdn: site %s has no transit at %s", as.Name, catalog.City(city).Name)
			}
			// Peering with co-located regional transits and eyeballs.
			for _, tr := range t.ByClass(topology.Transit) {
				if t.ASes[tr].Net.Present(city) && rng.Bool(cfg.TransitPeerProb) {
					if _, err := t.Connect(tr, as.ID, topology.P2P, []int{city}, false); err != nil {
						return nil, err
					}
				}
			}
			for _, ey := range t.ByClass(topology.Eyeball) {
				if t.ASes[ey].Net.Present(city) && rng.Bool(cfg.EyeballPeerProb) {
					if _, err := t.Connect(ey, as.ID, topology.P2P, []int{city}, true); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if len(c.Sites) == 0 {
		return nil, fmt.Errorf("cdn: no sites configured")
	}
	comp, err := lower(t)
	if err != nil {
		return nil, fmt.Errorf("cdn: route engine: %w", err)
	}
	c.comp = comp
	c.cache.unicast = make([]*bgp.RIB, len(c.Sites))
	return c, nil
}

// Routes returns the route engine behind the RIB caches, lowered from
// the CDN's finished topology.
func (c *CDN) Routes() bgp.Computer { return c.comp }

func isContracted(contracted []int, as int) bool {
	for _, c := range contracted {
		if c == as {
			return true
		}
	}
	return false
}

// Grooming describes manual anycast route optimization: per-site AS-path
// prepending, per-site suppressed links, and per-site withdrawal (a full
// drain — the site stops announcing the anycast prefix entirely, as an
// operator does ahead of planned maintenance or when a site is failing).
// Site indices key all three maps.
type Grooming struct {
	Prepend  map[int]int
	Suppress map[int]map[int]bool
	Withdraw map[int]bool
}

// Drain returns a grooming that withdraws the given sites from the
// anycast prefix, leaving everything else at defaults.
func Drain(sites ...int) *Grooming {
	w := make(map[int]bool, len(sites))
	for _, s := range sites {
		w[s] = true
	}
	return &Grooming{Withdraw: w}
}

// Announcements returns the anycast announcement set under the grooming
// (nil for the ungroomed default). Withdrawn sites are absent.
func (c *CDN) Announcements(g *Grooming) []bgp.Announcement {
	anns := make([]bgp.Announcement, 0, len(c.Sites))
	for i, s := range c.Sites {
		if g != nil && g.Withdraw[i] {
			continue
		}
		a := bgp.Announcement{Origin: s.AS.ID}
		if g != nil {
			a.Prepend = g.Prepend[i]
			if sup := g.Suppress[i]; len(sup) > 0 {
				a.SuppressLinks = sup
			}
		}
		anns = append(anns, a)
	}
	return anns
}

// AnycastRIB computes (and for the ungroomed case caches) the anycast
// routing state.
func (c *CDN) AnycastRIB(g *Grooming) (*bgp.RIB, error) {
	if g == nil {
		c.cache.mu.RLock()
		rib := c.cache.anycast
		c.cache.mu.RUnlock()
		if rib != nil {
			return rib, nil
		}
	}
	anns := c.Announcements(g)
	if len(anns) == 0 {
		return nil, fmt.Errorf("cdn: grooming withdraws every site; nothing announces the anycast prefix")
	}
	// Compute outside the lock: the RIB is a pure function of the
	// announcement set, so a racing duplicate is identical.
	rib, err := c.comp.Compute(anns)
	if err != nil {
		return nil, err
	}
	if g == nil {
		c.cache.mu.Lock()
		if c.cache.anycast != nil {
			rib = c.cache.anycast // keep the first-installed pointer stable
		} else {
			c.cache.anycast = rib
		}
		c.cache.mu.Unlock()
	}
	return rib, nil
}

// UnicastRIB returns (cached) routing toward one site's unicast prefix.
func (c *CDN) UnicastRIB(site int) (*bgp.RIB, error) {
	if site < 0 || site >= len(c.Sites) {
		return nil, fmt.Errorf("cdn: site %d out of range", site)
	}
	c.cache.mu.RLock()
	rib := c.cache.unicast[site]
	c.cache.mu.RUnlock()
	if rib != nil {
		return rib, nil
	}
	rib, err := c.comp.Compute([]bgp.Announcement{{Origin: c.Sites[site].AS.ID}})
	if err != nil {
		return nil, err
	}
	c.cache.mu.Lock()
	if prior := c.cache.unicast[site]; prior != nil {
		rib = prior
	} else {
		c.cache.unicast[site] = rib
	}
	c.cache.mu.Unlock()
	return rib, nil
}

// PrimeRIBs computes the ungroomed anycast RIB and every site's unicast
// RIB on a bounded worker pool, so subsequent cache hits are read-only.
// It returns the number of RIBs computed (zero when already warm).
func (c *CDN) PrimeRIBs(ctx context.Context, workers int) (int, error) {
	// Job -1 is the anycast RIB; jobs 0..len(Sites)-1 are unicast RIBs.
	var jobs []int
	c.cache.mu.RLock()
	if c.cache.anycast == nil {
		jobs = append(jobs, -1)
	}
	for site := range c.Sites {
		if c.cache.unicast[site] == nil {
			jobs = append(jobs, site)
		}
	}
	c.cache.mu.RUnlock()
	if len(jobs) == 0 {
		return 0, nil
	}
	_, err := par.MapCtx(ctx, workers, jobs, func(_ int, job int) (struct{}, error) {
		if job < 0 {
			_, err := c.AnycastRIB(nil)
			return struct{}{}, err
		}
		_, err := c.UnicastRIB(job)
		return struct{}{}, err
	})
	return len(jobs), err
}

// forwardRoute walks the forwarding chain from an AS/city with
// per-ingress route re-selection at every hop: each AS on the path
// re-runs the decision process anchored at the city where the traffic
// actually enters it (hot potato at every network, not just the first).
// This is what makes anycast behave per-client inside multi-city
// intermediate networks. If re-selection would revisit an AS, the walk
// falls back to the current route's remaining RIB path.
func (c *CDN) forwardRoute(rib *bgp.RIB, asID, city int) (bgp.Route, error) {
	t := c.Topo
	out := bgp.Route{Valid: true, Path: []int{asID}}
	visited := map[int]bool{asID: true}
	cur, curCity := asID, city
	for hop := 0; hop < 16; hop++ {
		r := rib.BestFrom(cur, curCity)
		if !r.Valid {
			return bgp.Route{}, fmt.Errorf("cdn: AS %d has no route", cur)
		}
		if r.Src == bgp.SrcOrigin {
			// cur originates the prefix; append any prepend padding.
			out.Path = append(out.Path, r.Path[1:]...)
			if hop == 0 {
				out.Src = bgp.SrcOrigin
				out.Link, out.NextHop = -1, -1
			}
			return out, nil
		}
		if hop == 0 {
			out.Link, out.NextHop, out.Src = r.Link, r.NextHop, r.Src
		}
		if visited[r.NextHop] {
			// Inconsistent per-ingress choices would loop; defer to the
			// converged RIB path from here on.
			out.Path = append(out.Path, r.Path[1:]...)
			out.Links = append(out.Links, r.Links...)
			return out, nil
		}
		out.Path = append(out.Path, r.NextHop)
		out.Links = append(out.Links, r.Link)
		visited[r.NextHop] = true
		// The handoff city: cur early-exits toward the next AS at the
		// interconnect nearest the traffic's ingress.
		link := t.Links[r.Link]
		bestCity, bestKm := -1, math.Inf(1)
		for _, ic := range link.Cities {
			if d := t.ASes[cur].Net.DistKm(curCity, ic); d < bestKm {
				bestCity, bestKm = ic, d
			}
		}
		if bestCity < 0 {
			return bgp.Route{}, fmt.Errorf("cdn: AS %d cannot reach link %d from city %d", cur, r.Link, curCity)
		}
		cur, curCity = r.NextHop, bestCity
	}
	return bgp.Route{}, fmt.Errorf("cdn: forwarding chain too long from AS %d", asID)
}

// Catchment returns the site index that anycast (under the grooming)
// steers the prefix's clients to, or an error when unreachable.
func (c *CDN) Catchment(p topology.Prefix, g *Grooming) (int, error) {
	rib, err := c.AnycastRIB(g)
	if err != nil {
		return 0, err
	}
	r, err := c.forwardRoute(rib, p.Origin, p.City)
	if err != nil {
		return 0, fmt.Errorf("cdn: prefix %d cannot reach the anycast prefix: %w", p.ID, err)
	}
	if !r.Valid {
		return 0, fmt.Errorf("cdn: prefix %d cannot reach the anycast prefix", p.ID)
	}
	site, ok := c.siteByAS[r.Origin()]
	if !ok {
		return 0, fmt.Errorf("cdn: anycast route ends at non-site AS %d", r.Origin())
	}
	return site, nil
}

// UnicastRTT measures the prefix's latency to one specific site at time t
// (request RTT: client -> site, plus server processing).
func (c *CDN) UnicastRTT(sim *netsim.Sim, p topology.Prefix, site int, t float64) (float64, error) {
	phys, err := c.unicastPhys(p, site)
	if err != nil {
		return 0, err
	}
	return sim.RouteRTTMs(phys, p, t) + c.ServerMs, nil
}

// unicastPhys returns the prefix's resolved physical route to the site,
// memoized: the forwarding walk and path resolution are pure functions of
// the (immutable) unicast RIB, so only the first sample per (site,
// prefix) pays for them. The grooming sweeps hammer this with thousands
// of (prefix, time) pairs per site.
func (c *CDN) unicastPhys(p topology.Prefix, site int) (netpath.Route, error) {
	key := int64(site)<<32 | int64(p.ID)
	c.cache.physMu.RLock()
	phys, ok := c.cache.phys[key]
	c.cache.physMu.RUnlock()
	if ok {
		return phys, nil
	}
	rib, err := c.UnicastRIB(site)
	if err != nil {
		return netpath.Route{}, err
	}
	r, err := c.forwardRoute(rib, p.Origin, p.City)
	if err != nil {
		return netpath.Route{}, fmt.Errorf("cdn: prefix %d cannot reach site %d: %w", p.ID, site, err)
	}
	phys, err = c.resolver.Resolve(r, p.City, c.Sites[site].City)
	if err != nil {
		return netpath.Route{}, err
	}
	c.cache.physMu.Lock()
	if prior, ok := c.cache.phys[key]; ok {
		phys = prior // keep the first-installed route stable
	} else {
		c.cache.phys[key] = phys
	}
	c.cache.physMu.Unlock()
	return phys, nil
}

// AnycastRTT measures the prefix's latency over the anycast prefix at
// time t, returning the latency and the catchment site.
func (c *CDN) AnycastRTT(sim *netsim.Sim, p topology.Prefix, g *Grooming, t float64) (float64, int, error) {
	rib, err := c.AnycastRIB(g)
	if err != nil {
		return 0, 0, err
	}
	return c.RTTViaRIB(sim, rib, p, t)
}

// RTTViaRIB measures the prefix's anycast latency using a precomputed
// anycast RIB — callers sweeping grooming configurations compute the RIB
// once and reuse it across prefixes and times.
func (c *CDN) RTTViaRIB(sim *netsim.Sim, rib *bgp.RIB, p topology.Prefix, t float64) (float64, int, error) {
	phys, site, err := c.PhysViaRIB(rib, p)
	if err != nil {
		return 0, 0, err
	}
	return sim.RouteRTTMs(phys, p, t) + c.ServerMs, site, nil
}

// PhysViaRIB resolves the prefix's anycast forwarding walk under the RIB
// into a physical route and its catchment site. The result is independent
// of time, so callers sampling many time points (the grooming sweep)
// resolve once per prefix and pay only Sim.RouteRTTMs per sample.
func (c *CDN) PhysViaRIB(rib *bgp.RIB, p topology.Prefix) (netpath.Route, int, error) {
	r, err := c.forwardRoute(rib, p.Origin, p.City)
	if err != nil {
		return netpath.Route{}, 0, fmt.Errorf("cdn: prefix %d cannot reach the anycast prefix: %w", p.ID, err)
	}
	site, ok := c.siteByAS[r.Origin()]
	if !ok {
		return netpath.Route{}, 0, fmt.Errorf("cdn: anycast route ends at non-site AS %d", r.Origin())
	}
	phys, err := c.resolver.Resolve(r, p.City, c.Sites[site].City)
	if err != nil {
		return netpath.Route{}, 0, err
	}
	return phys, site, nil
}

// NearestSites returns the k sites geodesically closest to the prefix's
// anchor city, nearest first.
func (c *CDN) NearestSites(p topology.Prefix, k int) []int {
	return c.NearestSitesToCity(p.City, k)
}

// SiteDistanceKm returns the geodesic distance from the prefix's anchor
// city to the rank-th nearest site (rank 0 = nearest).
func (c *CDN) SiteDistanceKm(p topology.Prefix, rank int) float64 {
	sites := c.NearestSites(p, rank+1)
	if rank >= len(sites) {
		return math.Inf(1)
	}
	return geo.DistanceKm(c.Topo.Catalog.City(p.City).Loc,
		c.Topo.Catalog.City(c.Sites[sites[rank]].City).Loc)
}
