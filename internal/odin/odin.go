// Package odin models a client-side measurement pipeline in the style of
// Microsoft's Odin (Calder et al., NSDI 2018), the system behind the
// paper's §2.2 "spraying background requests": a sampled fraction of real
// page views is instrumented to fetch tiny objects from a few candidate
// endpoints — the anycast address plus nearby unicast front-ends — and
// the reported latencies are aggregated per ⟨LDNS, endpoint⟩.
//
// The pipeline is where redirection systems get their data, and its
// sampling budget is where their prediction error comes from: resolvers
// whose client population generates few instrumented views get noisy
// latency estimates, and close calls between candidates flip. The xodin
// experiment uses this to derive, mechanistically, the mispredictions
// that Figure 4 injects as a noise parameter.
package odin

import (
	"fmt"
	"math"
	"sort"

	"beatbgp/internal/cdn"
	"beatbgp/internal/dnsmap"
	"beatbgp/internal/netsim"
	"beatbgp/internal/stats"
	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

// Config tunes the measurement campaign. Zero value gets defaults.
type Config struct {
	Seed uint64
	// SampleRate is the fraction of page views instrumented (default
	// 0.01). The total measurement budget scales linearly with it.
	SampleRate float64
}

// The campaign's fixed parameters.
const (
	// viewsPerWeight converts a prefix's traffic weight into page views
	// per measurement round.
	viewsPerWeight = 25
	// unicastCandidates is how many nearby unicast front-ends each task
	// measures alongside anycast.
	unicastCandidates = 2
	// clientJitterMs is the per-sample measurement jitter scale, an
	// exponential tail on top of the network RTT.
	clientJitterMs = 3
)

func (c *Config) setDefaults() {
	if c.SampleRate == 0 {
		c.SampleRate = 0.01
	}
}

// Aggregate holds the campaign's per-⟨resolver, endpoint⟩ latency
// distributions. Endpoint keys use cdn.AnycastChoice for the anycast
// address and site indices for unicast front-ends.
type Aggregate struct {
	byKey   map[[2]int]*stats.Dist // [resolver, endpoint]
	samples int
}

// Samples returns the total number of latency reports collected.
func (a *Aggregate) Samples() int { return a.samples }

// Estimate returns the median latency estimate and sample count for one
// ⟨resolver, endpoint⟩ cell.
func (a *Aggregate) Estimate(resolver, endpoint int) (medianMs float64, n int, ok bool) {
	d := a.byKey[[2]int{resolver, endpoint}]
	if d == nil || d.N() == 0 {
		return 0, 0, false
	}
	return d.Median(), d.N(), true
}

// Endpoints returns the endpoints with any data for the resolver,
// ascending (AnycastChoice sorts first).
func (a *Aggregate) Endpoints(resolver int) []int {
	var out []int
	for k := range a.byKey {
		if k[0] == resolver {
			out = append(out, k[1])
		}
	}
	sort.Ints(out)
	return out
}

// Pipeline runs measurement campaigns against a CDN.
type Pipeline struct {
	cfg Config
	cdn *cdn.CDN
	dns *dnsmap.Mapping
	sim *netsim.Sim
}

// New returns a pipeline.
func New(c *cdn.CDN, m *dnsmap.Mapping, sim *netsim.Sim, cfg Config) *Pipeline {
	cfg.setDefaults()
	return &Pipeline{cfg: cfg, cdn: c, dns: m, sim: sim}
}

// Collect runs one campaign: for every prefix and measurement round, the
// instrumented share of its page views each measure anycast plus a few
// nearby unicast candidates. Returns the per-resolver aggregates.
func (p *Pipeline) Collect(prefixes []topology.Prefix, rounds []float64) (*Aggregate, error) {
	if len(rounds) == 0 {
		return nil, fmt.Errorf("odin: no measurement rounds")
	}
	agg := &Aggregate{byKey: make(map[[2]int]*stats.Dist)}
	add := func(resolver, endpoint int, ms float64) {
		k := [2]int{resolver, endpoint}
		d := agg.byKey[k]
		if d == nil {
			d = &stats.Dist{}
			agg.byKey[k] = d
		}
		d.Add(ms, 1)
		agg.samples++
	}
	for _, px := range prefixes {
		r, ok := p.dns.ResolverFor(px.ID)
		if !ok {
			continue
		}
		// Deterministic per-prefix stream, independent of slice order.
		rng := xrand.New(p.cfg.Seed ^ uint64(px.ID)*0x9e3779b97f4a7c15)
		nearby := p.cdn.NearestSites(px, unicastCandidates+2)
		for _, t := range rounds {
			// Number of instrumented views this round: the fractional
			// expectation resolved by a Bernoulli draw on the remainder.
			exp := px.Weight * viewsPerWeight * p.cfg.SampleRate
			views := int(exp)
			if rng.Bool(exp - math.Floor(exp)) {
				views++
			}
			for v := 0; v < views; v++ {
				jt := t + rng.Uniform(0, 10) // views spread across the round
				if rtt, _, err := p.cdn.AnycastRTT(p.sim, px, nil, jt); err == nil {
					add(r.ID, cdn.AnycastChoice, rtt+rng.Exp(clientJitterMs))
				}
				// A random subset of the nearby sites.
				perm := rng.Perm(len(nearby))
				for i := 0; i < unicastCandidates && i < len(perm); i++ {
					site := nearby[perm[i]]
					if rtt, err := p.cdn.UnicastRTT(p.sim, px, site, jt); err == nil {
						add(r.ID, site, rtt+rng.Exp(clientJitterMs))
					}
				}
			}
		}
	}
	return agg, nil
}

// Decide turns an aggregate into per-resolver serving decisions: the
// endpoint with the lowest median estimate wins, but unicast endpoints
// need at least minSamples reports and must beat anycast's estimate by
// marginMs (the hybrid knob). Resolvers with no anycast data stay on
// anycast.
func Decide(agg *Aggregate, minSamples int, marginMs float64) map[int]int {
	out := make(map[int]int)
	resolvers := map[int]bool{}
	for k := range agg.byKey {
		resolvers[k[0]] = true
	}
	ids := make([]int, 0, len(resolvers))
	for r := range resolvers {
		ids = append(ids, r)
	}
	sort.Ints(ids)
	for _, r := range ids {
		anyMed, _, ok := agg.Estimate(r, cdn.AnycastChoice)
		if !ok {
			continue
		}
		best, bestMed := cdn.AnycastChoice, anyMed
		for _, ep := range agg.Endpoints(r) {
			if ep == cdn.AnycastChoice {
				continue
			}
			med, n, ok := agg.Estimate(r, ep)
			if !ok || n < minSamples {
				continue
			}
			bar := bestMed
			if best == cdn.AnycastChoice {
				bar -= marginMs
			}
			if med < bar {
				best, bestMed = ep, med
			}
		}
		out[r] = best
	}
	return out
}
