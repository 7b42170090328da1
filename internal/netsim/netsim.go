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
//
// The measurement trace (MinRTTsMs) evaluates the model on a fixed grid of
// probe instants — five per window — so its time-only terms are computed
// once per instant, not once per route: the prefix's last mile once per
// trace, and the evening-peak factor once per (catalog city, instant) per
// Sim. The single-instant queries (RouteRTTMs, LinkMs, LastMileMs)
// evaluate the same expressions directly, so both forms return
// bit-identical floats.
package netsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"beatbgp/internal/delta"
	"beatbgp/internal/faults"
	"beatbgp/internal/netpath"
	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

// HorizonMinutes bounds the incident and link-failure schedules:
// evaluating beyond it finds none. 40 days cover the 10-day Edge Fabric
// trace and the time-compressed cloud-tier campaign with slack; a longer
// trace is a config error (core.Config.Validate).
const HorizonMinutes = 40 * 24 * 60

// Config tunes the congestion model. The zero value gets defaults. Every
// Sim draws its schedules up to the one HorizonMinutes.
type Config struct {
	Seed uint64

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
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LastMileDiurnalMedianMs", c.LastMileDiurnalMedianMs},
		{"PrefixIncidentsPerDay", c.PrefixIncidentsPerDay},
		{"PrefixIncidentMeanMin", c.PrefixIncidentMeanMin},
		{"LinkImpairedProb", c.LinkImpairedProb},
		{"LinkImpairMinMs", c.LinkImpairMinMs},
		{"LinkImpairMaxMs", c.LinkImpairMaxMs},
		{"LinkIncidentsPerDay", c.LinkIncidentsPerDay},
		{"LinkIncidentMeanMin", c.LinkIncidentMeanMin},
		{"LinkFailuresPerDay", c.LinkFailuresPerDay},
		{"LinkRepairMeanMin", c.LinkRepairMeanMin},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("netsim: %s = %v must be finite and non-negative", f.name, f.v)
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

// Sim evaluates the congestion model. Every per-entity process is a pure
// function of (seed, entity), memoized on first use in lock-free per-ID
// slots (the first install wins), so queries are safe from any number of
// goroutines and identical under any interleaving. The diurnal factor on
// the probe grid, a pure function of (city, instant), is memoized the same
// way, one series per city.
//
// Everything that shapes a Sim's answers — config, injected link state,
// injected congestion, per-link failure scales — is bound at
// construction; nothing changes it afterwards.
type Sim struct {
	topo *topology.Topo
	cfg  Config
	// seq is the compiled epoch sequence of injected link state (nil for
	// none), the same one the route chains walk; tl supplies injected
	// congestion storms (nil for none); failScale multiplies individual
	// links' failure rates (e.g. fragile small peers). All are read-only
	// after New.
	seq       *delta.Sequence
	tl        *faults.Timeline
	failScale map[int]float64

	// asNoise is each AS's backbone jitter floor, drawn in New (one
	// draw per AS); the per-entity processes are memoized lazily.
	asNoise   []float64
	prefixes  memo[prefixProc]
	links     memo[linkProc]
	linkFails memo[[]incident]
	// diurnal memoises the diurnal factor on the probe grid per (window
	// length, city phase), a seriesKey -> *atomic.Pointer[[]float64]
	// (see diurnalOn). It depends on nothing else, but each Sim keeps its
	// own, as it does its processes: a clone's series go with it.
	diurnal sync.Map
}

// memo is a lazily filled, lock-free table of per-entity values: one
// slot per ID the topology had at New, and a map for any other ID (the
// vantage-point prefixes of internal/measure live at 1,000,000 and up).
// Every value is a pure function of (seed, entity), so a racing build is
// identical and the first install wins.
type memo[T any] struct {
	dense  []atomic.Pointer[T]
	sparse sync.Map // int -> *T
}

func newMemo[T any](n int) memo[T] {
	return memo[T]{dense: make([]atomic.Pointer[T], n)}
}

// load returns id's value, or nil before its first install.
func (m *memo[T]) load(id int) *T {
	if uint(id) < uint(len(m.dense)) {
		return m.dense[id].Load()
	}
	if v, ok := m.sparse.Load(id); ok {
		return v.(*T)
	}
	return nil
}

// install stores v as id's value unless one is already there, and
// returns the value that stays.
func (m *memo[T]) install(id int, v *T) *T {
	if uint(id) < uint(len(m.dense)) {
		if m.dense[id].CompareAndSwap(nil, v) {
			return v
		}
		return m.dense[id].Load()
	}
	got, _ := m.sparse.LoadOrStore(id, v)
	return got.(*T)
}

type prefixProc struct {
	baseMs     float64 // median last-mile RTT floor
	diurnalMs  float64 // evening-peak amplitude
	phaseHours float64 // local solar offset of the anchor city
	incidents  []incident
}

// at is the congestion-affected last mile at t, given diurnal(t, phase).
func (pp *prefixProc) at(diurnalFactor, t float64) float64 {
	return pp.baseMs + pp.diurnalMs*diurnalFactor + incidentMs(pp.incidents, t)
}

type linkProc struct {
	impairMs  float64 // persistent extra latency (0 for healthy links)
	diurnalMs float64
	phase     float64
	incidents []incident
}

// at is the link's drawn congestion at t, given diurnal(t, phase); the
// injected storms are added by the caller.
func (lp *linkProc) at(diurnalFactor, t float64) float64 {
	return lp.impairMs + lp.diurnalMs*diurnalFactor + incidentMs(lp.incidents, t)
}

// New creates a simulator over the topology. seq, when non-nil, is the
// compiled epoch sequence of injected link state, composed on top of the
// stochastic failures (a link is down when either says so, and past
// seq's horizon its last epoch holds). tl, when non-nil, supplies
// injected congestion storms, which add to the drawn congestion.
// failScale, when non-nil, multiplies the failure rate of the links it
// names; it is copied, so later edits by the caller do not reach the Sim.
func New(t *topology.Topo, cfg Config, seq *delta.Sequence, tl *faults.Timeline, failScale map[int]float64) *Sim {
	cfg.setDefaults()
	s := &Sim{
		topo:      t,
		cfg:       cfg,
		seq:       seq,
		tl:        tl,
		asNoise:   make([]float64, len(t.ASes)),
		prefixes:  newMemo[prefixProc](len(t.Prefixes)),
		links:     newMemo[linkProc](len(t.Links)),
		linkFails: newMemo[[]incident](len(t.Links)),
	}
	for as := range s.asNoise {
		s.asNoise[as] = s.drawASNoise(as)
	}
	if len(failScale) > 0 {
		s.failScale = make(map[int]float64, len(failScale))
		for l, f := range failScale {
			s.failScale[l] = f
		}
	}
	return s
}

// Clone returns a simulator over the same topology, configuration,
// injected link state and congestion, and failure-rate scales, with a
// private (empty) process and diurnal memo.
// Because every process is a pure function of (seed, entity), a clone
// returns bit-identical answers to its parent for every query; it exists
// as the per-worker state factory for parallel fan-out (internal/par).
func (s *Sim) Clone() *Sim {
	return New(s.topo, s.cfg, s.seq, s.tl, s.failScale)
}

// rngFor derives a deterministic generator for one entity, independent of
// query order.
func (s *Sim) rngFor(kind, id int) *xrand.Rand {
	return xrand.New(s.seedFor(kind, id))
}

// seedFor is rngFor's seed. A hot caller passes it to xrand.New itself:
// New inlines there, so a generator used for one draw stays on the stack.
func (s *Sim) seedFor(kind, id int) uint64 {
	h := s.cfg.Seed
	h ^= uint64(kind+1) * 0x9e3779b97f4a7c15
	return (h ^ uint64(id+1)) * 0xbf58476d1ce4e5b9
}

// drawIncidents builds a deterministic incident schedule.
func drawIncidents(rng *xrand.Rand, perDay, meanDurMin, magXm, magAlpha, magCap float64) []incident {
	if perDay <= 0 {
		return nil
	}
	meanGapMin := 24 * 60 / perDay
	var out []incident
	t := rng.Exp(meanGapMin)
	for t < HorizonMinutes {
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
	// Bump between 17:00 and 25:00 (1:00), peaking at 21:00.
	h := hourOfDay(tMinutes/60 + phaseHours)
	if h < 12 {
		h += 24 // map early-morning hours to 24..36 so the bump is contiguous
	}
	if h < 17 || h > 25 {
		return 0
	}
	x := math.Sin(math.Pi * (h - 17) / 8)
	return x * x
}

// hourOfDay reduces x hours to the local hour in [0, 24]: math.Mod(x, 24),
// plus 24 when that is negative. The truncated quotient makes the same
// remainder as math.Mod, exactly: 24·q is exact, x − 24·q is exact for
// x ≥ 0 (Sterbenz) and rounds once, as math.Mod's remainder + 24 does, for
// x < 0; a quotient that rounds to the next integer leaves a remainder
// just below 0, which the fix-up adds 24 to, as it does to math.Mod's.
// The only difference is the sign of a zero result for x a negative
// multiple of 24, which diurnal maps to the same hour. Beyond 2⁵⁰ hours
// (and for NaN and ±Inf), where q would stop fitting the exact range,
// it defers to math.Mod.
func hourOfDay(x float64) float64 {
	var r float64
	if math.Abs(x) < 1<<50 {
		r = x - 24*float64(int64(x/24))
	} else {
		r = math.Mod(x, 24)
	}
	if r < 0 {
		r += 24
	}
	return r
}

// probes is the number of instants MinRTT samples in each window.
const probes = 5

// probeAt is the i-th probe instant of the window starting at t.
func probeAt(t, windowMin float64, i int) float64 {
	return t + windowMin*float64(i)/probes
}

// seriesKey is a grid's window length and a phase, as bits so that every
// float is a key that matches itself.
type seriesKey struct{ windowMin, phase uint64 }

// diurnalOn returns the diurnal series at phase (a catalog city's
// Lon/15) for the first windows windows of length windowMin: element
// w·probes+i is diurnal(probeAt(w·windowMin, windowMin, i), phase).
// Racing builds are identical; a longer series replaces a shorter one,
// whose values it repeats.
func (s *Sim) diurnalOn(phase, windowMin float64, windows int) []float64 {
	key := seriesKey{math.Float64bits(windowMin), math.Float64bits(phase)}
	v, ok := s.diurnal.Load(key)
	if !ok {
		v, _ = s.diurnal.LoadOrStore(key, new(atomic.Pointer[[]float64]))
	}
	slot := v.(*atomic.Pointer[[]float64])
	for {
		old := slot.Load()
		if old != nil && len(*old) >= windows*probes {
			return *old
		}
		series := make([]float64, windows*probes)
		for w := 0; w < windows; w++ {
			t := float64(w) * windowMin
			for i := 0; i < probes; i++ {
				series[w*probes+i] = diurnal(probeAt(t, windowMin, i), phase)
			}
		}
		if slot.CompareAndSwap(old, &series) {
			return series
		}
	}
}

func (s *Sim) prefixProcFor(p topology.Prefix) *prefixProc {
	if pp := s.prefixes.load(p.ID); pp != nil {
		return pp
	}
	rng := s.rngFor(kindPrefix, p.ID)
	origin := s.topo.ASes[p.Origin]
	city := s.topo.Catalog.City(p.City)
	pp := &prefixProc{
		baseMs:     origin.LastMileMs * rng.LogNormal(0, 0.3),
		diurnalMs:  rng.LogNormal(math.Log(s.cfg.LastMileDiurnalMedianMs), 0.8),
		phaseHours: city.Loc.Lon / 15,
		incidents:  drawIncidents(rng, s.cfg.PrefixIncidentsPerDay, s.cfg.PrefixIncidentMeanMin, 4, 1.3, 200),
	}
	return s.prefixes.install(p.ID, pp)
}

func (s *Sim) linkProcFor(linkID int) *linkProc {
	if lp := s.links.load(linkID); lp != nil {
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
	lp := &linkProc{
		impairMs:  impair,
		diurnalMs: rng.LogNormal(0, 0.8), // median 1 ms
		phase:     s.topo.Catalog.City(link.Cities[0]).Loc.Lon / 15,
		incidents: drawIncidents(rng, s.cfg.LinkIncidentsPerDay, s.cfg.LinkIncidentMeanMin, 3, 1.5, 100),
	}
	return s.links.install(linkID, lp)
}

func (s *Sim) drawASNoise(asID int) float64 {
	return s.rngFor(kindAS, asID).Uniform(0.1, 0.5)
}

func (s *Sim) asNoiseFor(asID int) float64 {
	if uint(asID) < uint(len(s.asNoise)) {
		return s.asNoise[asID]
	}
	return s.drawASNoise(asID)
}

// LastMileMs returns the shared-fate last-mile latency toward the prefix
// at time t: base access RTT plus diurnal and incident congestion. Every
// route to the prefix pays this identically.
func (s *Sim) LastMileMs(p topology.Prefix, t float64) float64 {
	pp := s.prefixProcFor(p)
	if s.cfg.DisableSharedFate {
		return pp.baseMs
	}
	return pp.at(diurnal(t, pp.phaseHours), t)
}

// LinkMs returns the route-specific latency contribution of one
// interdomain link at time t, including any injected congestion storms.
func (s *Sim) LinkMs(linkID int, t float64) float64 {
	lp := s.linkProcFor(linkID)
	ms := lp.at(diurnal(t, lp.phase), t)
	if s.tl != nil {
		ms += s.tl.ExtraLinkMs(linkID, t)
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

// MinRTTsMs models TCP's MinRTT for each route toward the prefix over
// consecutive measurement windows of windowMin minutes (15 when not
// positive). dst holds one slice per route, all of one length n, and
// dst[j][w] becomes route j's MinRTT over the window starting at
// w·windowMin, for every w below n. Each is the minimum of
// the instantaneous RTT (RouteRTTMs) at five probe instants across the
// window, plus a small sampling residue drawn deterministically from the
// window identity, and equals, bit for bit, that minimum taken by five
// RouteRTTMs calls. The time-only terms are evaluated once per probe
// instant: the last mile for all routes at once, the diurnal factor from
// the Sim's per-city series.
func (s *Sim) MinRTTsMs(routes []netpath.Route, p topology.Prefix, windowMin float64, dst [][]float64) {
	if windowMin <= 0 {
		windowMin = 15
	}
	if len(routes) == 0 {
		return
	}
	windows := len(dst[0])
	pp := s.prefixProcFor(p)
	var lastMile []float64 // nil when the last mile is flat
	if !s.cfg.DisableSharedFate {
		lastMile = s.diurnalOn(pp.phaseHours, windowMin, windows)
	}
	// Per route, the time-invariant head of RouteRTTMs' sum (the same
	// left-to-right prefix) and each crossed link's process and series.
	type linkTerm struct {
		id      int
		lp      *linkProc
		diurnal []float64
	}
	heads := make([]float64, len(routes))
	terms := make([][]linkTerm, len(routes))
	for j, r := range routes {
		rtt := r.PropRTTMs()
		for _, h := range r.Hops {
			rtt += s.asNoiseFor(h.AS)
		}
		heads[j] = rtt
		terms[j] = make([]linkTerm, len(r.Links))
		for k, l := range r.Links {
			lp := s.linkProcFor(l)
			terms[j][k] = linkTerm{l, lp, s.diurnalOn(lp.phase, windowMin, windows)}
		}
	}
	var at, lm [probes]float64
	for w := 0; w < windows; w++ {
		t := float64(w) * windowMin
		for i := range at {
			at[i] = probeAt(t, windowMin, i)
			lm[i] = pp.baseMs
			if lastMile != nil {
				lm[i] = pp.at(lastMile[w*probes+i], at[i])
			}
		}
		// Sampling residue: MinRTT over finitely many sessions sits
		// slightly above the floor. Keyed by (prefix, window, first link)
		// so repeated evaluation is stable.
		window := p.ID*1_000_003 + int(t/windowMin)
		for j, r := range routes {
			lo := math.Inf(1)
			for i, ti := range at {
				rtt := heads[j]
				for _, lt := range terms[j] {
					ms := lt.lp.at(lt.diurnal[w*probes+i], ti)
					if s.tl != nil {
						ms += s.tl.ExtraLinkMs(lt.id, ti)
					}
					rtt += ms
				}
				rtt += lm[i]
				if rtt < lo {
					lo = rtt
				}
			}
			key := window
			if len(r.Links) > 0 {
				key = key*31 + r.Links[0]
			}
			dst[j][w] = lo + xrand.New(s.seedFor(kindAS+17, key)).Exp(0.3)
		}
	}
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
	if f := s.linkFails.load(linkID); f != nil {
		return *f
	}
	rate := s.cfg.LinkFailuresPerDay
	if scale, ok := s.failScale[linkID]; ok {
		rate *= scale
	}
	rng := s.rngFor(kindLinkFail, linkID)
	f := drawIncidents(rng, rate, s.cfg.LinkRepairMeanMin, 1, 2, 1)
	return *s.linkFails.install(linkID, &f)
}

// LinkFailed reports whether the interdomain link is down at time t,
// either by the stochastic failure process or in the injected epoch
// sequence.
func (s *Sim) LinkFailed(linkID int, t float64) bool {
	if s.seq != nil && s.seq.LinkDownAt(linkID, t) {
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
