// Package measure emulates a global measurement platform in the style of
// Speedchecker or RIPE Atlas (§3.3): vantage points identified by
// ⟨City, AS⟩ inside eyeball networks, a credit budget, ping and traceroute
// primitives evaluated against the simulated network, deterministic daily
// rotation of vantage points, and the paper's RIPE-style ingress-point
// detection that succeeds for ~72% of traceroutes.
package measure

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"beatbgp/internal/geo"
	"beatbgp/internal/netpath"
	"beatbgp/internal/netsim"
	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

// The platform's fixed parameters.
const (
	pingsPerProbe  = 5    // ping packets per measurement; the minimum is reported
	pingCost       = 1    // credits per ping probe
	tracerouteCost = 2    // credits per traceroute
	ingressDetect  = 0.72 // probability an ingress is localizable
	// vpPrefixBase offsets synthetic vantage-point prefix IDs so their
	// congestion processes do not collide with real client prefixes.
	vpPrefixBase = 1_000_000
)

// VantagePoint is one measurement host: a ⟨City, AS⟩ location inside an
// eyeball network, with a synthetic prefix carrying its last-mile
// congestion process.
type VantagePoint struct {
	ID     int
	AS     int
	City   int
	Prefix topology.Prefix
}

// Target is something the platform can probe. Route resolves the physical
// path from a vantage point to the target; ExtraRTTMs adds target-side
// latency beyond that path (e.g. private-WAN carriage from the ingress to
// a data center). ExtraRTTMs may be nil.
type Target struct {
	Name       string
	Route      func(vp VantagePoint) (netpath.Route, error)
	ExtraRTTMs func(vp VantagePoint) float64
}

// Platform issues measurements and accounts for credits.
//
// Measurement noise is keyed by ⟨vantage point, target, probe time⟩ —
// never by call order — so any set of probes returns the same values
// whatever the issue order or concurrency, and repeating a probe repeats
// its measurement (a deterministic platform measuring a deterministic
// network). Probes are therefore safe to issue from parallel workers; use
// WithSim to give each worker a private simulator memo.
type Platform struct {
	topo *topology.Topo
	sim  *netsim.Sim
	seed uint64
	vps  []VantagePoint

	creditsUsed *atomic.Int64 // shared across WithSim views
}

// New enumerates vantage points (every ⟨footprint city, eyeball AS⟩ pair)
// and returns a platform whose rotation and measurement noise derive from
// seed.
func New(t *topology.Topo, sim *netsim.Sim, seed uint64) *Platform {
	p := &Platform{topo: t, sim: sim, seed: seed, creditsUsed: new(atomic.Int64)}
	for _, asID := range t.ByClass(topology.Eyeball) {
		for _, city := range t.ASes[asID].Cities {
			id := len(p.vps)
			p.vps = append(p.vps, VantagePoint{
				ID:   id,
				AS:   asID,
				City: city,
				Prefix: topology.Prefix{
					ID:     vpPrefixBase + id,
					Origin: asID,
					City:   city,
					Weight: 1,
				},
			})
		}
	}
	return p
}

// VantagePoints returns every available VP in ID order.
func (p *Platform) VantagePoints() []VantagePoint {
	out := make([]VantagePoint, len(p.vps))
	copy(out, p.vps)
	return out
}

// Rotation returns the deterministic daily selection of up to n vantage
// points for the given day, rotating across ⟨City, AS⟩ locations over
// time as the paper's methodology does.
func (p *Platform) Rotation(day, n int) []VantagePoint {
	if n > len(p.vps) {
		n = len(p.vps)
	}
	rng := xrand.New(p.seed ^ (uint64(day)+1)*0x9e3779b97f4a7c15)
	perm := rng.Perm(len(p.vps))
	out := make([]VantagePoint, 0, n)
	for _, idx := range perm[:n] {
		out = append(out, p.vps[idx])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WithSim returns a view of the platform that resolves measurements
// against the given simulator but shares the vantage-point set and the
// credit meter. Hand each parallel worker a view over its own Sim clone
// so the simulator's lazy memos stay uncontended.
func (p *Platform) WithSim(sim *netsim.Sim) *Platform {
	v := *p
	v.sim = sim
	return &v
}

// CreditsUsed reports total credits consumed.
func (p *Platform) CreditsUsed() int { return int(p.creditsUsed.Load()) }

// nameHash folds a target name into the measurement key space.
func nameHash(s string) uint64 {
	h := uint64(0xcbf29ce484222325) // FNV-1a
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// probeRNG returns the noise stream for one ⟨vp, target, time⟩ probe.
// Keying by the probe's identity (not by call order) is what makes the
// platform order-independent and safe under parallel fan-out.
func (p *Platform) probeRNG(vp VantagePoint, tgt Target, t float64) *xrand.Rand {
	return xrand.Derive(p.seed^0x5eedc, uint64(vp.ID), nameHash(tgt.Name), math.Float64bits(t))
}

// Ping probes the target from the VP at simulated minute t and returns
// the minimum RTT over pingsPerProbe packets, like the ping tool's
// "min" column. It consumes pingCost credits.
func (p *Platform) Ping(vp VantagePoint, tgt Target, t float64) (float64, error) {
	p.creditsUsed.Add(int64(pingCost))
	route, err := tgt.Route(vp)
	if err != nil {
		return 0, fmt.Errorf("measure: ping %s from vp%d: %w", tgt.Name, vp.ID, err)
	}
	extra := 0.0
	if tgt.ExtraRTTMs != nil {
		extra = tgt.ExtraRTTMs(vp)
	}
	rng := p.probeRNG(vp, tgt, t)
	best := 0.0
	for i := 0; i < pingsPerProbe; i++ {
		rtt := p.sim.RouteRTTMs(route, vp.Prefix, t+float64(i)*0.01) + extra + rng.Exp(0.2)
		if i == 0 || rtt < best {
			best = rtt
		}
	}
	return best, nil
}

// TracerouteResult is the resolved path plus the detected ingress into
// the final AS (the target's network), if localizable.
type TracerouteResult struct {
	Route         netpath.Route
	IngressCity   int  // city where traffic enters the final AS
	IngressKnown  bool // detection succeeds with probability ingressDetect
	IngressDistKm float64
}

// Traceroute probes the forwarding path and attempts to localize where it
// enters the target's network, in the style of the paper's RIPE-probe
// heuristic. It consumes tracerouteCost credits.
func (p *Platform) Traceroute(vp VantagePoint, tgt Target) (TracerouteResult, error) {
	p.creditsUsed.Add(int64(tracerouteCost))
	route, err := tgt.Route(vp)
	if err != nil {
		return TracerouteResult{}, fmt.Errorf("measure: traceroute %s from vp%d: %w", tgt.Name, vp.ID, err)
	}
	if len(route.Hops) == 0 {
		return TracerouteResult{}, fmt.Errorf("measure: empty route")
	}
	res := TracerouteResult{Route: route}
	res.IngressCity = route.Hops[len(route.Hops)-1].Ingress
	res.IngressKnown = p.probeRNG(vp, tgt, -1).Bool(ingressDetect)
	res.IngressDistKm = geo.DistanceKm(
		p.topo.Catalog.City(vp.City).Loc,
		p.topo.Catalog.City(res.IngressCity).Loc)
	return res, nil
}
