package cdn

import (
	"fmt"
	"sort"

	"beatbgp/internal/dnsmap"
	"beatbgp/internal/geo"
	"beatbgp/internal/netsim"
	"beatbgp/internal/stats"
	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

// AnycastChoice marks "serve over the anycast prefix" in a Redirector
// decision.
const AnycastChoice = -1

// Redirector is a measurement-driven DNS redirection policy: for every
// LDNS it picks either a specific unicast front-end or anycast, based on
// historical measurements from clients behind that LDNS. Resolvers that
// send ECS get per-prefix decisions instead — the oracle granularity the
// paper notes is virtually unavailable in practice.
type Redirector struct {
	byResolver map[int]int // resolver ID -> site index or AnycastChoice
	byPrefix   map[int]int // ECS-capable resolvers: prefix ID -> decision
}

// NewRedirector builds a redirection policy from externally computed
// decisions — e.g. aggregates from a client-measurement pipeline like the
// odin package. Keys are resolver IDs and (for ECS-grade decisions)
// prefix IDs; values are site indices or AnycastChoice. The maps are
// copied.
func NewRedirector(byResolver, byPrefix map[int]int) *Redirector {
	rd := &Redirector{
		byResolver: make(map[int]int, len(byResolver)),
		byPrefix:   make(map[int]int, len(byPrefix)),
	}
	for k, v := range byResolver {
		rd.byResolver[k] = v
	}
	for k, v := range byPrefix {
		rd.byPrefix[k] = v
	}
	return rd
}

// NearestSitesToCity returns the k sites closest to a city, nearest
// first (ties by site index). The slice is shared: callers must not
// modify it, and its capacity is capped at k so an append copies.
func (c *CDN) NearestSitesToCity(city, k int) []int {
	ranked := c.rankedSites(city)
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[:k:k]
}

// rankedSites returns every site index ranked by geodesic distance from
// the city, ties by index: built on first use, then memoized in the
// city's slot. The ranking is a pure function of the sites, so a racing
// build is identical and the first install wins.
func (c *CDN) rankedSites(city int) []int {
	slot := &c.nearest[city]
	if ranked := slot.Load(); ranked != nil {
		return *ranked
	}
	loc := c.Topo.Catalog.City(city).Loc
	dist := make([]float64, len(c.Sites))
	ranked := make([]int, len(c.Sites))
	for i, s := range c.Sites {
		dist[i] = geo.DistanceKm(loc, c.Topo.Catalog.City(s.City).Loc)
		ranked[i] = i
	}
	sort.Slice(ranked, func(a, b int) bool {
		da, db := dist[ranked[a]], dist[ranked[b]]
		if da != db {
			return da < db
		}
		return ranked[a] < ranked[b]
	})
	if !slot.CompareAndSwap(nil, &ranked) {
		return *slot.Load()
	}
	return ranked
}

// kNearest bounds the candidate unicast sites redirection training
// considers per LDNS.
const kNearest = 5

// TrainOpts tunes redirection training.
type TrainOpts struct {
	// NoiseMs is the standard deviation of the per-candidate estimation
	// bias (default 10 ms). Real redirection systems estimate each
	// candidate's latency from sparse, self-selected client samples; this
	// systematic error is what makes them mis-predict when candidates are
	// nearly tied — the paper's Figure 4 "did worse than anycast" mass.
	// Set to a negative value for noiseless (oracle) training.
	NoiseMs float64
	// UseECS lets the redirector exploit EDNS Client Subnet where the
	// resolver sends it, making per-client decisions. The 2015 system the
	// paper analyzed did not consume ECS, so this defaults to false; it
	// is the granularity ablation called out in DESIGN.md.
	UseECS bool
}

func (o *TrainOpts) setDefaults() {
	if o.NoiseMs == 0 {
		o.NoiseMs = 10
	}
}

// TrainRedirector builds a redirection policy from measurements taken at
// the training times: for each LDNS, the candidate set is anycast plus the
// kNearest sites to the *resolver's* city (the redirection system only
// knows where the resolver is), and the winner is the candidate with the
// lowest weighted median RTT across the resolver's client prefixes.
func TrainRedirector(c *CDN, sim *netsim.Sim, m *dnsmap.Mapping,
	prefixes []topology.Prefix, trainTimes []float64, opts TrainOpts) (*Redirector, error) {
	if len(trainTimes) == 0 {
		return nil, fmt.Errorf("cdn: no training times")
	}
	opts.setDefaults()
	rd := &Redirector{
		byResolver: make(map[int]int),
		byPrefix:   make(map[int]int),
	}
	byResolver := make(map[int][]topology.Prefix)
	for _, p := range prefixes {
		r, ok := m.ResolverFor(p.ID)
		if !ok {
			continue
		}
		byResolver[r.ID] = append(byResolver[r.ID], p)
	}
	for _, r := range m.Resolvers() {
		group := byResolver[r.ID]
		if len(group) == 0 {
			continue
		}
		if r.ECS && opts.UseECS {
			// Per-prefix decisions at oracle granularity.
			for _, p := range group {
				choice, err := c.bestOption(sim, []topology.Prefix{p},
					c.NearestSitesToCity(p.City, kNearest), trainTimes, opts.NoiseMs)
				if err != nil {
					return nil, err
				}
				rd.byPrefix[p.ID] = choice
			}
			continue
		}
		choice, err := c.bestOption(sim, group, c.NearestSitesToCity(r.City, kNearest), trainTimes, opts.NoiseMs)
		if err != nil {
			return nil, err
		}
		rd.byResolver[r.ID] = choice
	}
	return rd, nil
}

// bestOption scores anycast plus the candidate sites over the group of
// prefixes and returns the winner (AnycastChoice or a site index).
// Prefixes that cannot reach a candidate simply skip it, mirroring a
// measurement system that never hears from those clients.
func (c *CDN) bestOption(sim *netsim.Sim, group []topology.Prefix, candidates []int, times []float64, noiseMs float64) (int, error) {
	// Deterministic per-group noise stream. The bias is drawn once per
	// candidate, not per sample: a real redirection system estimates each
	// candidate's latency from a sparse, self-selected subset of the
	// group's clients, so its per-candidate estimates carry systematic
	// error that a median over samples does not wash out.
	seed := uint64(0x9e3779b97f4a7c15)
	for _, p := range group {
		seed = (seed ^ uint64(p.ID)) * 0xbf58476d1ce4e5b9
	}
	rng := xrand.New(seed)
	bias := func() float64 {
		if noiseMs <= 0 {
			return 0
		}
		return rng.Norm(0, noiseMs)
	}
	best, bestMed := AnycastChoice, 0.0
	{
		var d stats.Dist
		for _, p := range group {
			for _, t := range times {
				if rtt, _, err := c.AnycastRTT(sim, p, nil, t); err == nil {
					d.Add(rtt, p.Weight)
				}
			}
		}
		if d.N() == 0 {
			return AnycastChoice, fmt.Errorf("cdn: no anycast measurements for group")
		}
		bestMed = d.Median() + bias()
	}
	for _, site := range candidates {
		var d stats.Dist
		for _, p := range group {
			for _, t := range times {
				if rtt, err := c.UnicastRTT(sim, p, site, t); err == nil {
					d.Add(rtt, p.Weight)
				}
			}
		}
		if d.N() == 0 {
			continue
		}
		med := d.Median() + bias()
		if med < bestMed {
			best, bestMed = site, med
		}
	}
	return best, nil
}

// Decision returns the redirector's choice for a prefix: a site index or
// AnycastChoice. Unknown prefixes fall back to anycast.
func (rd *Redirector) Decision(p topology.Prefix, m *dnsmap.Mapping) int {
	if choice, ok := rd.byPrefix[p.ID]; ok {
		return choice
	}
	r, ok := m.ResolverFor(p.ID)
	if !ok {
		return AnycastChoice
	}
	if choice, ok := rd.byResolver[r.ID]; ok {
		return choice
	}
	return AnycastChoice
}

// ServeRTT measures the latency the prefix experiences at time t when
// served per the redirector's decision.
func (c *CDN) ServeRTT(sim *netsim.Sim, rd *Redirector, m *dnsmap.Mapping, p topology.Prefix, t float64) (float64, error) {
	choice := rd.Decision(p, m)
	if choice == AnycastChoice {
		rtt, _, err := c.AnycastRTT(sim, p, nil, t)
		return rtt, err
	}
	rtt, err := c.UnicastRTT(sim, p, choice, t)
	if err != nil {
		// The decision was made for the group; this client cannot reach
		// the chosen site at all — fall back to anycast, as a real CDN's
		// health checks eventually would.
		rtt, _, err = c.AnycastRTT(sim, p, nil, t)
	}
	return rtt, err
}
