// Package netsim is the latency and congestion engine. It layers dynamic
// and persistent impairments on top of netpath's propagation delays:
//
//   - per-prefix last-mile congestion with a diurnal evening peak and
//     random incidents — this is SHARED FATE: it applies to every route
//     toward the prefix, encoding the paper's §3.1.1 finding that when the
//     BGP path degrades, the alternates usually degrade with it;
//   - per-interdomain-link congestion and persistent impairments — the
//     route-specific component that occasionally makes one egress choice
//     genuinely better than another;
//   - per-AS backbone jitter (small);
//   - link failure processes for availability experiments.
//
// All processes are deterministic functions of (seed, entity, time), so a
// simulation is reproducible and time-travel (evaluating any window in any
// order) is free. Time is simulated minutes from epoch; latencies are
// float64 milliseconds.
package netsim

import (
	"fmt"
	"math"
	"sync"

	"beatbgp/internal/netpath"
	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

// Config tunes the congestion model. The zero value gets defaults.
type Config struct {
	Seed uint64

	// HorizonMinutes bounds the incident schedules; evaluating beyond it
	// returns no incidents. Default 16 days (covers the 10-day Edge
	// Fabric trace plus slack); the cloud-tier study uses its own config.
	HorizonMinutes float64

	// Last-mile (per prefix, shared fate across routes).
	LastMileDiurnalMedianMs float64 // median diurnal peak amplitude (default 3)
	PrefixIncidentsPerDay   float64 // incident rate (default 0.5)
	PrefixIncidentMeanMin   float64 // mean incident duration minutes (default 45)

	// Interdomain links (route specific).
	LinkImpairedProb    float64 // persistent impairment probability (default 0.09)
	LinkImpairMinMs     float64 // impairment range (default 2..12)
	LinkImpairMaxMs     float64
	LinkIncidentsPerDay float64 // incident rate (default 0.12)
	LinkIncidentMeanMin float64 // mean incident duration minutes (default 40)

	// Link failures (availability experiments).
	LinkFailuresPerDay float64 // default 1/30 (one per month)
	LinkRepairMeanMin  float64 // default 60

	// PNIImpairFactor scales the persistent-impairment probability of
	// dedicated private interconnects relative to public links (default
	// 0.15: PNIs are capacity-managed). Setting it to 1 is the ablation
	// that makes PNIs as failure-prone as everything else. Negative
	// values are treated as 0.
	PNIImpairFactor float64

	// DisableSharedFate turns off prefix-level congestion entirely; the
	// ablation for the §3.1.1 hypothesis.
	DisableSharedFate bool
}

// Validate rejects nonsensical parameters. Zero values are fine (they
// select defaults); negative, NaN, or infinite rates and durations, and
// probabilities above 1, are errors.
func (c *Config) Validate() error {
	for name, v := range map[string]float64{
		"HorizonMinutes":          c.HorizonMinutes,
		"LastMileDiurnalMedianMs": c.LastMileDiurnalMedianMs,
		"PrefixIncidentsPerDay":   c.PrefixIncidentsPerDay,
		"PrefixIncidentMeanMin":   c.PrefixIncidentMeanMin,
		"LinkImpairedProb":        c.LinkImpairedProb,
		"LinkImpairMinMs":         c.LinkImpairMinMs,
		"LinkImpairMaxMs":         c.LinkImpairMaxMs,
		"LinkIncidentsPerDay":     c.LinkIncidentsPerDay,
		"LinkIncidentMeanMin":     c.LinkIncidentMeanMin,
		"LinkFailuresPerDay":      c.LinkFailuresPerDay,
		"LinkRepairMeanMin":       c.LinkRepairMeanMin,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("netsim: %s = %v must be finite and non-negative", name, v)
		}
	}
	if c.LinkImpairedProb > 1 {
		return fmt.Errorf("netsim: LinkImpairedProb = %v must be at most 1", c.LinkImpairedProb)
	}
	if math.IsNaN(c.PNIImpairFactor) || math.IsInf(c.PNIImpairFactor, 0) {
		return fmt.Errorf("netsim: PNIImpairFactor = %v must be finite", c.PNIImpairFactor)
	}
	if c.LinkImpairMinMs > 0 && c.LinkImpairMaxMs > 0 && c.LinkImpairMinMs > c.LinkImpairMaxMs {
		return fmt.Errorf("netsim: LinkImpairMinMs %v exceeds LinkImpairMaxMs %v",
			c.LinkImpairMinMs, c.LinkImpairMaxMs)
	}
	return nil
}

func (c *Config) setDefaults() {
	if c.HorizonMinutes == 0 {
		c.HorizonMinutes = 16 * 24 * 60
	}
	if c.LastMileDiurnalMedianMs == 0 {
		c.LastMileDiurnalMedianMs = 3
	}
	if c.PrefixIncidentsPerDay == 0 {
		c.PrefixIncidentsPerDay = 0.5
	}
	if c.PrefixIncidentMeanMin == 0 {
		c.PrefixIncidentMeanMin = 45
	}
	if c.LinkImpairedProb == 0 {
		c.LinkImpairedProb = 0.09
	}
	if c.LinkImpairMinMs == 0 {
		c.LinkImpairMinMs = 2
	}
	if c.LinkImpairMaxMs == 0 {
		c.LinkImpairMaxMs = 12
	}
	if c.LinkIncidentsPerDay == 0 {
		c.LinkIncidentsPerDay = 0.12
	}
	if c.LinkIncidentMeanMin == 0 {
		c.LinkIncidentMeanMin = 40
	}
	if c.LinkFailuresPerDay == 0 {
		c.LinkFailuresPerDay = 1.0 / 30
	}
	if c.LinkRepairMeanMin == 0 {
		c.LinkRepairMeanMin = 60
	}
	if c.PNIImpairFactor == 0 {
		c.PNIImpairFactor = 0.15
	}
	if c.PNIImpairFactor < 0 {
		c.PNIImpairFactor = 0
	}
}

// incident is one congestion (or outage) event on an entity.
type incident struct {
	start, end  float64 // minutes
	magnitudeMs float64 // 0 for outages
}

// entity kinds for seed derivation.
const (
	kindPrefix = iota
	kindLink
	kindAS
	kindLinkFail
)

// FaultOverlay is a scheduled fault process (typically a faults.Timeline)
// composed on top of the stochastic incidents: a link is down when either
// process says so, and injected congestion adds to the drawn congestion.
type FaultOverlay interface {
	// LinkDownAt reports whether an injected fault takes the link down at
	// minute t.
	LinkDownAt(linkID int, t float64) bool
	// ExtraLinkMs returns injected congestion on the link at minute t.
	ExtraLinkMs(linkID int, t float64) float64
}

// Sim evaluates the congestion model. Every per-entity process is a pure
// function of (seed, entity), memoized on first use; the memo is guarded,
// so queries are safe from any number of goroutines and identical under
// any interleaving. Hot parallel loops should still prefer a per-worker
// Clone — it samples the same world from a private memo, trading a little
// duplicated schedule construction for zero lock traffic.
//
// Everything that shapes a Sim's answers — config, fault overlay,
// per-link failure scales — is bound at construction; nothing changes it
// afterwards.
type Sim struct {
	topo *topology.Topo
	cfg  Config
	// faults is the scheduled fault overlay (nil for none); failScale
	// multiplies individual links' failure rates (e.g. fragile small
	// peers). Both are read-only after New.
	faults    FaultOverlay
	failScale map[int]float64

	mu        sync.RWMutex
	prefixes  map[int]*prefixProc
	links     map[int]*linkProc
	asNoise   map[int]float64
	linkFails map[int][]incident
}

type prefixProc struct {
	baseMs     float64 // median last-mile RTT floor
	diurnalMs  float64 // evening-peak amplitude
	phaseHours float64 // local solar offset of the anchor city
	incidents  []incident
}

type linkProc struct {
	impairMs  float64 // persistent extra latency (0 for healthy links)
	diurnalMs float64
	phase     float64
	incidents []incident
}

// New creates a simulator over the topology. faults, when non-nil, is a
// scheduled fault process composed on top of the stochastic incidents (a
// link is down when either says so; injected congestion adds to the
// drawn congestion). failScale, when non-nil, multiplies the failure rate
// of the links it names; it is copied, so later edits by the caller do
// not reach the Sim.
func New(t *topology.Topo, cfg Config, faults FaultOverlay, failScale map[int]float64) *Sim {
	cfg.setDefaults()
	s := &Sim{
		topo:      t,
		cfg:       cfg,
		faults:    faults,
		prefixes:  make(map[int]*prefixProc),
		links:     make(map[int]*linkProc),
		asNoise:   make(map[int]float64),
		linkFails: make(map[int][]incident),
	}
	if len(failScale) > 0 {
		s.failScale = make(map[int]float64, len(failScale))
		for l, f := range failScale {
			s.failScale[l] = f
		}
	}
	return s
}

// Config returns the effective configuration (defaults applied).
func (s *Sim) Config() Config { return s.cfg }

// Clone returns a simulator over the same topology, configuration, fault
// overlay, and failure-rate scales, with a private (empty) process memo.
// Because every process is a pure function of (seed, entity), a clone
// returns bit-identical answers to its parent for every query; it exists
// as the per-worker state factory for parallel fan-out (internal/par), so
// hot loops sample without cross-worker lock contention.
func (s *Sim) Clone() *Sim {
	return New(s.topo, s.cfg, s.faults, s.failScale)
}

// rngFor derives a deterministic generator for one entity, independent of
// query order.
func (s *Sim) rngFor(kind, id int) *xrand.Rand {
	h := s.cfg.Seed
	h ^= uint64(kind+1) * 0x9e3779b97f4a7c15
	h = (h ^ uint64(id+1)) * 0xbf58476d1ce4e5b9
	return xrand.New(h)
}

// drawIncidents builds a deterministic incident schedule.
func drawIncidents(rng *xrand.Rand, horizon, perDay, meanDurMin, magXm, magAlpha, magCap float64) []incident {
	if perDay <= 0 {
		return nil
	}
	meanGapMin := 24 * 60 / perDay
	var out []incident
	t := rng.Exp(meanGapMin)
	for t < horizon {
		dur := rng.Exp(meanDurMin)
		mag := rng.Pareto(magXm, magAlpha)
		if mag > magCap {
			mag = magCap
		}
		out = append(out, incident{start: t, end: t + dur, magnitudeMs: mag})
		t += dur + rng.Exp(meanGapMin)
	}
	return out
}

func incidentMs(incidents []incident, t float64) float64 {
	// Schedules are short; linear scan with early exit on sorted starts.
	total := 0.0
	for _, in := range incidents {
		if in.start > t {
			break
		}
		if t < in.end {
			total += in.magnitudeMs
		}
	}
	return total
}

// diurnal returns the evening-peak congestion multiplier in [0,1]:
// a smooth bump centered near 21:00 local time.
func diurnal(tMinutes, phaseHours float64) float64 {
	localHour := math.Mod(tMinutes/60+phaseHours, 24)
	if localHour < 0 {
		localHour += 24
	}
	// Bump between 17:00 and 25:00 (1:00), peaking at 21:00.
	h := localHour
	if h < 12 {
		h += 24 // map early-morning hours to 24..36 so the bump is contiguous
	}
	if h < 17 || h > 25 {
		return 0
	}
	x := math.Sin(math.Pi * (h - 17) / 8)
	return x * x
}

func (s *Sim) prefixProcFor(p topology.Prefix) *prefixProc {
	s.mu.RLock()
	pp, ok := s.prefixes[p.ID]
	s.mu.RUnlock()
	if ok {
		return pp
	}
	rng := s.rngFor(kindPrefix, p.ID)
	origin := s.topo.ASes[p.Origin]
	city := s.topo.Catalog.City(p.City)
	pp = &prefixProc{
		baseMs:     origin.LastMileMs * rng.LogNormal(0, 0.3),
		diurnalMs:  rng.LogNormal(math.Log(s.cfg.LastMileDiurnalMedianMs), 0.8),
		phaseHours: city.Loc.Lon / 15,
		incidents: drawIncidents(rng, s.cfg.HorizonMinutes,
			s.cfg.PrefixIncidentsPerDay, s.cfg.PrefixIncidentMeanMin, 4, 1.3, 200),
	}
	// The process is a pure function of (seed, prefix): a racing build
	// produced an identical value, so keep whichever pointer landed first.
	s.mu.Lock()
	if prior, ok := s.prefixes[p.ID]; ok {
		pp = prior
	} else {
		s.prefixes[p.ID] = pp
	}
	s.mu.Unlock()
	return pp
}

func (s *Sim) linkProcFor(linkID int) *linkProc {
	s.mu.RLock()
	lp, ok := s.links[linkID]
	s.mu.RUnlock()
	if ok {
		return lp
	}
	rng := s.rngFor(kindLink, linkID)
	link := s.topo.Links[linkID]
	// Dedicated private interconnects (PNIs) are capacity-managed by both
	// sides (§3.1.2: providers "avoid congesting the dedicated
	// interconnection"), so they rarely carry a persistent impairment.
	impairProb, impairMax := s.cfg.LinkImpairedProb, s.cfg.LinkImpairMaxMs
	if link.Private && s.cfg.PNIImpairFactor < 1 {
		impairProb *= s.cfg.PNIImpairFactor
		impairMax = s.cfg.LinkImpairMinMs + (impairMax-s.cfg.LinkImpairMinMs)*0.5
	}
	var impair float64
	if rng.Bool(impairProb) {
		impair = rng.Uniform(s.cfg.LinkImpairMinMs, impairMax)
	}
	phase := s.topo.Catalog.City(link.Cities[0]).Loc.Lon / 15
	lp = &linkProc{
		impairMs:  impair,
		diurnalMs: rng.LogNormal(0, 0.8), // median 1 ms
		phase:     phase,
		incidents: drawIncidents(rng, s.cfg.HorizonMinutes,
			s.cfg.LinkIncidentsPerDay, s.cfg.LinkIncidentMeanMin, 3, 1.5, 100),
	}
	s.mu.Lock()
	if prior, ok := s.links[linkID]; ok {
		lp = prior
	} else {
		s.links[linkID] = lp
	}
	s.mu.Unlock()
	return lp
}

func (s *Sim) asNoiseFor(asID int) float64 {
	s.mu.RLock()
	v, ok := s.asNoise[asID]
	s.mu.RUnlock()
	if ok {
		return v
	}
	v = s.rngFor(kindAS, asID).Uniform(0.1, 0.5)
	s.mu.Lock()
	s.asNoise[asID] = v
	s.mu.Unlock()
	return v
}

// LastMileMs returns the shared-fate last-mile latency toward the prefix
// at time t: base access RTT plus diurnal and incident congestion. Every
// route to the prefix pays this identically.
func (s *Sim) LastMileMs(p topology.Prefix, t float64) float64 {
	pp := s.prefixProcFor(p)
	if s.cfg.DisableSharedFate {
		return pp.baseMs
	}
	return pp.baseMs + pp.diurnalMs*diurnal(t, pp.phaseHours) + incidentMs(pp.incidents, t)
}

// LinkMs returns the route-specific latency contribution of one
// interdomain link at time t, including any injected congestion storms.
func (s *Sim) LinkMs(linkID int, t float64) float64 {
	lp := s.linkProcFor(linkID)
	ms := lp.impairMs + lp.diurnalMs*diurnal(t, lp.phase) + incidentMs(lp.incidents, t)
	if s.faults != nil {
		ms += s.faults.ExtraLinkMs(linkID, t)
	}
	return ms
}

// RouteRTTMs returns the instantaneous RTT of a resolved route toward the
// prefix at time t: propagation, per-AS backbone jitter floor, link
// congestion on every crossed interdomain link, and the prefix's
// shared-fate last mile.
func (s *Sim) RouteRTTMs(r netpath.Route, p topology.Prefix, t float64) float64 {
	rtt := r.PropRTTMs()
	for _, h := range r.Hops {
		rtt += s.asNoiseFor(h.AS)
	}
	for _, l := range r.Links {
		rtt += s.LinkMs(l, t)
	}
	rtt += s.LastMileMs(p, t)
	return rtt
}

// MinRTTMs models TCP's MinRTT over a measurement window starting at t:
// the minimum of the instantaneous RTT sampled across the window, plus a
// small sampling residue drawn deterministically from the window identity.
func (s *Sim) MinRTTMs(r netpath.Route, p topology.Prefix, t, windowMin float64) float64 {
	if windowMin <= 0 {
		windowMin = 15
	}
	lo := math.Inf(1)
	const probes = 5
	for i := 0; i < probes; i++ {
		ti := t + windowMin*float64(i)/probes
		if v := s.RouteRTTMs(r, p, ti); v < lo {
			lo = v
		}
	}
	// Sampling residue: MinRTT over finitely many sessions sits slightly
	// above the floor. Keyed by (prefix, window, first link) so repeated
	// evaluation is stable.
	key := p.ID*1_000_003 + int(t/windowMin)
	if len(r.Links) > 0 {
		key = key*31 + r.Links[0]
	}
	rng := s.rngFor(kindAS+17, key)
	return lo + rng.Exp(0.3)
}

// LossRate estimates packet loss on the route at time t, for the TCP
// throughput model: a floor plus congestion-proportional loss.
func (s *Sim) LossRate(r netpath.Route, p topology.Prefix, t float64) float64 {
	cong := 0.0
	for _, l := range r.Links {
		cong += s.LinkMs(l, t)
	}
	cong += s.LastMileMs(p, t) - s.prefixProcFor(p).baseMs
	loss := 0.0005 + cong*0.0004
	if loss > 0.2 {
		loss = 0.2
	}
	return loss
}

func (s *Sim) failSchedule(linkID int) []incident {
	s.mu.RLock()
	f, ok := s.linkFails[linkID]
	s.mu.RUnlock()
	if ok {
		return f
	}
	rate := s.cfg.LinkFailuresPerDay
	if scale, ok := s.failScale[linkID]; ok {
		rate *= scale
	}
	rng := s.rngFor(kindLinkFail, linkID)
	f = drawIncidents(rng, s.cfg.HorizonMinutes, rate, s.cfg.LinkRepairMeanMin, 1, 2, 1)
	s.mu.Lock()
	if prior, ok := s.linkFails[linkID]; ok {
		f = prior
	} else {
		s.linkFails[linkID] = f
	}
	s.mu.Unlock()
	return f
}

// LinkFailed reports whether the interdomain link is down at time t,
// either by the stochastic failure process or by an injected fault.
func (s *Sim) LinkFailed(linkID int, t float64) bool {
	if s.faults != nil && s.faults.LinkDownAt(linkID, t) {
		return true
	}
	for _, in := range s.failSchedule(linkID) {
		if in.start > t {
			return false
		}
		if t < in.end {
			return true
		}
	}
	return false
}

// RouteUp reports whether every interdomain link of the route is up at t.
func (s *Sim) RouteUp(r netpath.Route, t float64) bool {
	for _, l := range r.Links {
		if s.LinkFailed(l, t) {
			return false
		}
	}
	return true
}

// DowntimeMinutes sums the link's stochastic outage minutes over [t0, t1).
// Injected faults are not included; query the overlay's own schedule.
func (s *Sim) DowntimeMinutes(linkID int, t0, t1 float64) float64 {
	total := 0.0
	for _, in := range s.failSchedule(linkID) {
		lo, hi := math.Max(in.start, t0), math.Min(in.end, t1)
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}
