// Package faults is the deterministic fault-injection layer of the
// simulator. Where netsim draws stochastic per-entity incident schedules
// from the scenario seed, faults holds an explicit, scheduled timeline of
// infrastructure events — submarine cable cuts, AS outages,
// peering-session resets, congestion storms, and LDNS-map
// staleness windows — that experiments inject on purpose to ask "what
// happens when things break?".
//
// A Timeline is built either from an explicit event list (New) or drawn
// seed-deterministically from a topology (Generate). It resolves every
// event into per-interdomain-link outage and congestion intervals at
// construction time. Outages leave as merged DownWindows, which the
// session layer (internal/session) replays and compiles into the epoch
// sequence (internal/delta) that answers "is link l down at minute t";
// congestion storms are read directly through ExtraLinkMs, which
// netsim adds to the drawn congestion.
//
// Cable cuts map to routing through facilities: a cut darkens the
// landing-station facilities at its two endpoint cities, and interdomain
// sessions anchored exclusively at those facilities drop until repair.
// Links that also interconnect elsewhere survive (their sessions re-home
// to the surviving facilities), which is how multi-facility peerings ride
// out a single cut while single-homed stub sites — CDN front-ends,
// city-restricted PNIs — go dark.
package faults

import (
	"fmt"
	"math"
	"sort"

	"beatbgp/internal/topology"
)

// Kind classifies a fault event.
type Kind int

// Fault kinds.
const (
	// CableCut severs one physical cable segment (Target = edge ID in
	// the topology's cable graph). Interdomain links whose interconnection
	// cities all lie at the cut's endpoints go down.
	CableCut Kind = iota
	// LinkDown resets one interdomain BGP session (Target = link ID).
	LinkDown
	// ASOutage takes a whole AS dark (Target = AS ID): every one of its
	// interdomain links goes down. Use it for CDN-site or stub outages.
	ASOutage
	// CongestionStorm adds MagnitudeMs of latency to every interdomain
	// link interconnecting at the target city (Target = city ID).
	CongestionStorm
	// LDNSStale marks a window during which DNS-redirection maps are
	// stale and must not be retrained (Target unused, use -1).
	LDNSStale
)

func (k Kind) String() string {
	switch k {
	case CableCut:
		return "cable-cut"
	case LinkDown:
		return "link-down"
	case ASOutage:
		return "as-outage"
	case CongestionStorm:
		return "congestion-storm"
	case LDNSStale:
		return "ldns-stale"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	Kind        Kind
	Start       float64 // simulated minutes
	Duration    float64 // minutes; must be positive
	Target      int     // edge/link/AS/city ID depending on Kind; -1 for LDNSStale
	MagnitudeMs float64 // CongestionStorm extra latency; ignored otherwise
	// Planned marks maintenance known in advance (a scheduled cable
	// splice, a site drain window). Graceful-degradation policies may act
	// before Start for planned events; unplanned ones can only react.
	Planned bool
}

// End returns the event's end minute.
func (e Event) End() float64 { return e.Start + e.Duration }

func (e Event) String() string {
	return fmt.Sprintf("%s target=%d [%.1f,%.1f)", e.Kind, e.Target, e.Start, e.End())
}

// interval is one [start, end) window, optionally with a magnitude.
type interval struct {
	start, end float64
	magMs      float64
}

// Timeline is a validated, queryable fault schedule over one topology.
// It is immutable after construction and safe for concurrent reads.
type Timeline struct {
	topo   *topology.Topo
	events []Event // sorted by Start, then Kind, then Target

	linkDown  map[int][]interval // link ID -> outage intervals
	linkExtra map[int][]interval // link ID -> storm intervals (with magnitudes)
	stale     []interval
}

// New validates the events against the topology and builds the timeline.
// Events may be passed in any order; they are kept sorted by start time.
func New(t *topology.Topo, events []Event) (*Timeline, error) {
	if t == nil {
		return nil, fmt.Errorf("faults: nil topology")
	}
	tl := &Timeline{
		topo:      t,
		events:    append([]Event(nil), events...),
		linkDown:  make(map[int][]interval),
		linkExtra: make(map[int][]interval),
	}
	sort.SliceStable(tl.events, func(i, j int) bool {
		a, b := tl.events[i], tl.events[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Target < b.Target
	})
	for i, e := range tl.events {
		if err := tl.validate(e); err != nil {
			return nil, fmt.Errorf("faults: event %d: %w", i, err)
		}
		tl.resolve(e)
	}
	return tl, nil
}

func (tl *Timeline) validate(e Event) error {
	if math.IsNaN(e.Start) || math.IsInf(e.Start, 0) || e.Start < 0 {
		return fmt.Errorf("%s: start %v must be a finite non-negative minute", e.Kind, e.Start)
	}
	if math.IsNaN(e.Duration) || math.IsInf(e.Duration, 0) || e.Duration <= 0 {
		return fmt.Errorf("%s: duration %v must be a finite positive minute count", e.Kind, e.Duration)
	}
	t := tl.topo
	switch e.Kind {
	case CableCut:
		if e.Target < 0 || e.Target >= t.Graph.NumEdges() {
			return fmt.Errorf("cable-cut edge %d out of range [0,%d)", e.Target, t.Graph.NumEdges())
		}
	case LinkDown:
		if e.Target < 0 || e.Target >= len(t.Links) {
			return fmt.Errorf("link-down link %d out of range [0,%d)", e.Target, len(t.Links))
		}
	case ASOutage:
		if e.Target < 0 || e.Target >= t.NumASes() {
			return fmt.Errorf("as-outage AS %d out of range [0,%d)", e.Target, t.NumASes())
		}
	case CongestionStorm:
		if e.Target < 0 || e.Target >= t.Catalog.Len() {
			return fmt.Errorf("%s city %d out of range [0,%d)", e.Kind, e.Target, t.Catalog.Len())
		}
		if math.IsNaN(e.MagnitudeMs) || math.IsInf(e.MagnitudeMs, 0) || e.MagnitudeMs <= 0 {
			return fmt.Errorf("congestion-storm magnitude %v must be finite and positive", e.MagnitudeMs)
		}
	case LDNSStale:
		// No target.
	default:
		return fmt.Errorf("unknown fault kind %d", int(e.Kind))
	}
	return nil
}

// resolve expands a validated event into per-link intervals.
func (tl *Timeline) resolve(e Event) {
	iv := interval{start: e.Start, end: e.End(), magMs: e.MagnitudeMs}
	switch e.Kind {
	case LDNSStale:
		tl.stale = append(tl.stale, iv)
	case CongestionStorm:
		for _, l := range tl.AffectedLinks(e) {
			tl.linkExtra[l] = append(tl.linkExtra[l], iv)
		}
	default:
		for _, l := range tl.AffectedLinks(e) {
			tl.linkDown[l] = append(tl.linkDown[l], iv)
		}
	}
}

// AffectedLinks returns the interdomain links an event touches, ascending.
// For CableCut this applies the facility rule: only links
// interconnecting exclusively at the cut's endpoint cities drop.
func (tl *Timeline) AffectedLinks(e Event) []int {
	t := tl.topo
	var out []int
	switch e.Kind {
	case LinkDown:
		out = []int{e.Target}
	case ASOutage:
		for _, nb := range t.Neighbors(e.Target) {
			out = append(out, nb.Link)
		}
	case CableCut:
		edge := t.Graph.Edge(e.Target)
		out = linksAnchoredWithin(t, map[int]bool{edge.A: true, edge.B: true})
	case CongestionStorm:
		for _, l := range t.Links {
			for _, c := range l.Cities {
				if c == e.Target {
					out = append(out, l.ID)
					break
				}
			}
		}
	}
	sort.Ints(out)
	return out
}

// linksAnchoredWithin returns links whose every interconnection city lies
// in the darkened set.
func linksAnchoredWithin(t *topology.Topo, dark map[int]bool) []int {
	var out []int
	for _, l := range t.Links {
		all := true
		for _, c := range l.Cities {
			if !dark[c] {
				all = false
				break
			}
		}
		if all {
			out = append(out, l.ID)
		}
	}
	return out
}

// Events returns a copy of the schedule, sorted by start time.
func (tl *Timeline) Events() []Event {
	return append([]Event(nil), tl.events...)
}

func within(ivs []interval, t float64) bool {
	for _, iv := range ivs {
		if iv.start <= t && t < iv.end {
			return true
		}
	}
	return false
}

// ExtraLinkMs returns the injected congestion (storms) on the link at
// minute t, summed over concurrent events.
func (tl *Timeline) ExtraLinkMs(linkID int, t float64) float64 {
	total := 0.0
	for _, iv := range tl.linkExtra[linkID] {
		if iv.start <= t && t < iv.end {
			total += iv.magMs
		}
	}
	return total
}

// DNSStale reports whether a redirection-map staleness window covers t.
func (tl *Timeline) DNSStale(t float64) bool { return within(tl.stale, t) }

// Window is one merged [Start, End) physical-outage window on a link.
type Window struct{ Start, End float64 }

// DownWindows returns the link's injected outage intervals, merged
// (overlapping and touching windows coalesce) and sorted by start. This
// is the physical up/down schedule the session layer (internal/session)
// replays: concurrent faults on one link present as a single continuous
// loss of liveness to the BGP speaker, which is exactly what merging
// encodes. Nil when the link is never taken down.
func (tl *Timeline) DownWindows(linkID int) []Window {
	ivs := tl.linkDown[linkID]
	if len(ivs) == 0 {
		return nil
	}
	ws := make([]Window, len(ivs))
	for i, iv := range ivs {
		ws[i] = Window{Start: iv.start, End: iv.end}
	}
	return MergeWindows(ws)
}

// MergeWindows sorts ws by start and coalesces overlapping and touching
// windows, in place; the result shares ws's storage. Nil for no windows.
func MergeWindows(ws []Window) []Window {
	if len(ws) == 0 {
		return nil
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Start != ws[j].Start {
			return ws[i].Start < ws[j].Start
		}
		return ws[i].End < ws[j].End
	})
	merged := ws[:1]
	for _, w := range ws[1:] {
		last := &merged[len(merged)-1]
		if w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
			continue
		}
		merged = append(merged, w)
	}
	return merged
}

// FaultedLinks returns every link with at least one outage interval,
// ascending — the set of peerings whose sessions have anything to replay.
func (tl *Timeline) FaultedLinks() []int {
	out := make([]int, 0, len(tl.linkDown))
	for l, ivs := range tl.linkDown {
		if len(ivs) > 0 {
			out = append(out, l)
		}
	}
	sort.Ints(out)
	return out
}
