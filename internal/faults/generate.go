package faults

import (
	"fmt"
	"math"

	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

// GenConfig parameterizes seed-deterministic fault-schedule generation.
// Counts are exact (a generated timeline has precisely the requested
// number of each event class); times and targets are drawn from the seed.
// The zero value plus a seed generates nothing — callers opt into each
// fault class explicitly.
type GenConfig struct {
	Seed           uint64
	HorizonMinutes float64 // schedule window (default 10 days)

	CableCuts       int     // submarine/terrestrial segment cuts
	LinkResets      int     // peering-session resets
	ASOutages       int     // whole-AS outages
	ASOutageMeanMin float64 // mean outage length (default 60)
	Storms          int     // metro congestion storms
	StaleWindows    int     // LDNS-map staleness windows

	// PlannedFraction of events are flagged Planned (maintenance known in
	// advance). Default 0: everything is a surprise.
	PlannedFraction float64

	// Candidate target pools. A nil pool defaults to every plausible
	// target of that class: all submarine cable edges for cuts, all
	// interdomain links for resets and all ASes for outages. Storms hit
	// interconnection cities (cities hosting at least one link).
	CandidateEdges []int
	CandidateLinks []int
	CandidateASes  []int
}

// The generator's fixed event shapes.
const (
	cableRepairMeanMin = 12 * 60 // mean time to splice a cut
	linkResetMeanMin   = 30      // mean session-down time of a reset
	stormMeanMin       = 120     // mean storm length
	stormMagnitudeMs   = 25      // extra latency during a storm
	staleWindowMeanMin = 240     // mean LDNS-map staleness length
)

func (c *GenConfig) setDefaults() {
	if c.HorizonMinutes == 0 {
		c.HorizonMinutes = 10 * 24 * 60
	}
	if c.ASOutageMeanMin == 0 {
		c.ASOutageMeanMin = 60
	}
}

// Validate rejects nonsensical generation parameters.
func (c *GenConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"HorizonMinutes", c.HorizonMinutes},
		{"ASOutageMeanMin", c.ASOutageMeanMin},
		{"PlannedFraction", c.PlannedFraction},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("faults: %s = %v must be finite and non-negative", f.name, f.v)
		}
	}
	if c.PlannedFraction > 1 {
		return fmt.Errorf("faults: PlannedFraction = %v must be at most 1", c.PlannedFraction)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"CableCuts", c.CableCuts}, {"LinkResets", c.LinkResets},
		{"ASOutages", c.ASOutages}, {"Storms", c.Storms},
		{"StaleWindows", c.StaleWindows},
	} {
		if f.v < 0 {
			return fmt.Errorf("faults: %s = %d must be non-negative", f.name, f.v)
		}
	}
	return nil
}

// Generate draws a fault schedule for the topology: each requested event
// gets a uniform start in the horizon, an exponential duration, and a
// target drawn from the candidate pool. Everything is a deterministic
// function of (seed, config, topology), independent of query order.
func Generate(t *topology.Topo, cfg GenConfig) (*Timeline, error) {
	if t == nil {
		return nil, fmt.Errorf("faults: nil topology")
	}
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	edges := cfg.CandidateEdges
	if edges == nil {
		for _, e := range t.Graph.Edges() {
			if e.Submarine {
				edges = append(edges, e.ID)
			}
		}
	}
	links := cfg.CandidateLinks
	if links == nil {
		links = make([]int, len(t.Links))
		for i := range t.Links {
			links[i] = i
		}
	}
	ases := cfg.CandidateASes
	if ases == nil {
		ases = make([]int, t.NumASes())
		for i := range ases {
			ases[i] = i
		}
	}
	var cities []int
	seen := make(map[int]bool)
	for _, l := range t.Links {
		for _, c := range l.Cities {
			if !seen[c] {
				seen[c] = true
				cities = append(cities, c)
			}
		}
	}

	rng := xrand.New(cfg.Seed ^ 0xFA017)
	var events []Event
	draw := func(label string, n int, kind Kind, meanMin float64, pool []int, magMs float64) error {
		if n == 0 {
			return nil
		}
		if len(pool) == 0 && kind != LDNSStale {
			return fmt.Errorf("faults: no candidate targets for %s events", kind)
		}
		r := rng.Split(label)
		for i := 0; i < n; i++ {
			target := -1
			if kind != LDNSStale {
				target = pool[r.Intn(len(pool))]
			}
			events = append(events, Event{
				Kind:        kind,
				Start:       r.Uniform(0, cfg.HorizonMinutes),
				Duration:    r.Exp(meanMin),
				Target:      target,
				MagnitudeMs: magMs,
				Planned:     r.Bool(cfg.PlannedFraction),
			})
		}
		return nil
	}
	if err := draw("cable", cfg.CableCuts, CableCut, cableRepairMeanMin, edges, 0); err != nil {
		return nil, err
	}
	if err := draw("reset", cfg.LinkResets, LinkDown, linkResetMeanMin, links, 0); err != nil {
		return nil, err
	}
	if err := draw("asout", cfg.ASOutages, ASOutage, cfg.ASOutageMeanMin, ases, 0); err != nil {
		return nil, err
	}
	if err := draw("storm", cfg.Storms, CongestionStorm, stormMeanMin, cities, stormMagnitudeMs); err != nil {
		return nil, err
	}
	if err := draw("stale", cfg.StaleWindows, LDNSStale, staleWindowMeanMin, nil, 0); err != nil {
		return nil, err
	}
	return New(t, events)
}
