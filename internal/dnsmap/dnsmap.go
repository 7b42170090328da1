// Package dnsmap models the client-to-resolver (LDNS) layer that limits
// DNS-based redirection in the paper's §3.2: redirection systems see only
// the resolver's identity, not the client's, so decisions are made at
// per-LDNS granularity. ISP resolvers sit at their network's main hub
// (aggregating clients from the whole footprint); a fraction of clients
// use public anycast resolvers whose nearest node may be in another metro
// entirely; and EDNS Client Subnet, which would fix this, is adopted by
// almost no ISPs (< 0.1% of ASes) though public resolvers do send it.
package dnsmap

import (
	"fmt"
	"math"
	"sort"

	"beatbgp/internal/geo"
	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

// Config tunes the resolver population. Zero value gets defaults.
type Config struct {
	Seed uint64
	// PublicResolverProb is the fraction of client prefixes configured to
	// use a public resolver instead of their ISP's (default 0.25).
	PublicResolverProb float64
	// ISPECSProb is the probability that an ISP resolver sends ECS
	// (default 0.001, the paper's "<0.1% of ASes").
	ISPECSProb float64
}

// Validate rejects nonsensical parameters. Zero values are fine (they
// select defaults).
func (c *Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"PublicResolverProb", c.PublicResolverProb},
		{"ISPECSProb", c.ISPECSProb},
	} {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("dnsmap: %s = %v must be a probability in [0, 1]", f.name, f.v)
		}
	}
	return nil
}

func (c *Config) setDefaults() {
	if c.PublicResolverProb == 0 {
		c.PublicResolverProb = 0.25
	}
	if c.ISPECSProb == 0 {
		c.ISPECSProb = 0.001
	}
}

// Resolver is one LDNS as seen by an authoritative DNS service.
type Resolver struct {
	ID     int
	City   int // where the resolver (or the client's nearest public node) sits
	AS     int // hosting AS; -1 for public resolver nodes
	Public bool
	ECS    bool // sends EDNS Client Subnet
}

// Mapping assigns every client prefix to a resolver.
type Mapping struct {
	resolvers []Resolver
	byPrefix  map[int]int // prefix ID -> resolver ID
}

// Build constructs the resolver population and prefix assignment for the
// topology's client prefixes.
func Build(t *topology.Topo, cfg Config) *Mapping {
	cfg.setDefaults()
	rng := xrand.New(cfg.Seed ^ 0xD15)
	m := &Mapping{byPrefix: make(map[int]int)}

	// Public resolver nodes: the largest city of every region. A client
	// using the public service is seen as the node nearest to it.
	publicNodes := make(map[geo.Region]int) // region -> resolver ID
	for _, region := range geo.Regions() {
		ids := t.Catalog.InRegion(region)
		sort.Slice(ids, func(i, j int) bool {
			a, b := t.Catalog.City(ids[i]), t.Catalog.City(ids[j])
			if a.Pop != b.Pop {
				return a.Pop > b.Pop
			}
			return ids[i] < ids[j]
		})
		if len(ids) == 0 {
			continue
		}
		r := Resolver{ID: len(m.resolvers), City: ids[0], AS: -1, Public: true, ECS: true}
		m.resolvers = append(m.resolvers, r)
		publicNodes[region] = r.ID
	}

	// ISP resolvers: one per eyeball AS, at the AS's largest footprint
	// city (LDNS aggregation across the whole AS footprint).
	ispResolver := make(map[int]int) // AS ID -> resolver ID
	for _, as := range t.ASes {
		if as.Class != topology.Eyeball {
			continue
		}
		hub, hubPop := as.Cities[0], -1.0
		for _, c := range as.Cities {
			if p := t.Catalog.City(c).Pop; p > hubPop {
				hub, hubPop = c, p
			}
		}
		r := Resolver{ID: len(m.resolvers), City: hub, AS: as.ID, ECS: rng.Bool(cfg.ISPECSProb)}
		m.resolvers = append(m.resolvers, r)
		ispResolver[as.ID] = r.ID
	}

	// Assign prefixes.
	for _, p := range t.Prefixes {
		if rng.Bool(cfg.PublicResolverProb) {
			region := t.Catalog.City(p.City).Region
			if id, ok := publicNodes[region]; ok {
				m.byPrefix[p.ID] = id
				continue
			}
		}
		if id, ok := ispResolver[p.Origin]; ok {
			m.byPrefix[p.ID] = id
		}
	}
	return m
}

// ResolverFor returns the LDNS serving the prefix.
func (m *Mapping) ResolverFor(prefixID int) (Resolver, bool) {
	id, ok := m.byPrefix[prefixID]
	if !ok {
		return Resolver{}, false
	}
	return m.resolvers[id], true
}

// Resolvers returns all resolvers in ID order.
func (m *Mapping) Resolvers() []Resolver {
	out := make([]Resolver, len(m.resolvers))
	copy(out, m.resolvers)
	return out
}
