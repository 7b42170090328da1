// Package workload generates the Edge-Fabric-style measurement trace of
// the paper's §3.1: sampled client HTTP sessions sprayed across a PoP's
// top egress routes, aggregated into per-⟨PoP, prefix, route⟩ median
// MinRTT values in 15-minute windows over a multi-day horizon, weighted
// by traffic volume.
package workload

import (
	"fmt"
	"math"

	"beatbgp/internal/netpath"
	"beatbgp/internal/netsim"
	"beatbgp/internal/provider"
	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

// Config tunes trace generation. Zero value gets defaults matching the
// paper's dataset: 10 days of 15-minute windows, BGP's top-3 routes.
type Config struct {
	Seed       uint64
	Days       int     // default 10
	WindowMin  float64 // default 15
	TopK       int     // routes sprayed per ⟨PoP, prefix⟩ (default 3)
	SessionsPW int     // sampled sessions per route per window (default 9)
}

// Validate rejects nonsensical parameters. Zero values are fine (they
// select defaults).
func (c *Config) Validate() error {
	if c.Days < 0 || c.TopK < 0 || c.SessionsPW < 0 {
		return fmt.Errorf("workload: Days/TopK/SessionsPW must be non-negative")
	}
	if math.IsNaN(c.WindowMin) || math.IsInf(c.WindowMin, 0) || c.WindowMin < 0 {
		return fmt.Errorf("workload: WindowMin = %v must be finite and non-negative", c.WindowMin)
	}
	return nil
}

func (c *Config) setDefaults() {
	if c.Days == 0 {
		c.Days = 10
	}
	if c.WindowMin == 0 {
		c.WindowMin = 15
	}
	if c.TopK == 0 {
		c.TopK = 3
	}
	if c.SessionsPW == 0 {
		c.SessionsPW = 9
	}
}

// Windows returns the start minute of every window in the horizon.
func Windows(days int, windowMin float64) []float64 {
	n := int(float64(days) * 24 * 60 / windowMin)
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * windowMin
	}
	return out
}

// RouteObs is one sprayed route's identity and resolved path.
type RouteObs struct {
	Option provider.EgressOption
	Phys   netpath.Route
}

// WindowObs is the aggregated measurement of one window.
type WindowObs struct {
	Start          float64
	MedianMinRTTMs []float64 // aligned with the trace's Routes
	VolumeBytes    float64   // traffic volume served in the window
}

// Trace is the full observation record for one ⟨PoP, prefix⟩ pair.
type Trace struct {
	PoPCity int
	Prefix  topology.Prefix
	Routes  []RouteObs // Routes[0] is BGP's most-preferred
	Windows []WindowObs
}

// Options returns the trace's egress options in policy order.
func (tr Trace) Options() []provider.EgressOption {
	opts := make([]provider.EgressOption, len(tr.Routes))
	for i, ro := range tr.Routes {
		opts[i] = ro.Option
	}
	return opts
}

// Generator produces traces.
type Generator struct {
	cfg Config
	sim *netsim.Sim
	res *netpath.Resolver
}

// NewGenerator returns a generator over the simulator.
func NewGenerator(sim *netsim.Sim, res *netpath.Resolver, cfg Config) *Generator {
	cfg.setDefaults()
	return &Generator{cfg: cfg, sim: sim, res: res}
}

// Config returns the effective configuration.
func (g *Generator) Config() Config { return g.cfg }

// WithSim returns a generator that samples the given simulator but keeps
// the configuration and resolver. Session draws are keyed by ⟨prefix,
// PoP⟩, not by simulator identity, so a view over a Clone of the original
// Sim replays identical traces; parallel replay hands each worker its own
// clone to keep the simulator's lazy memos uncontended.
func (g *Generator) WithSim(sim *netsim.Sim) *Generator {
	v := *g
	v.sim = sim
	return &v
}

// Egress returns the routes a PoP observes toward the prefix, the one
// rule behind Fig 1's traces and the daemon's latency answers: options
// in policy order, resolved with egress pinned at the PoP (Edge Fabric
// shifts traffic between routes there, it does not re-home the flow),
// unresolvable ones skipped, the first k kept.
func Egress(res *netpath.Resolver, popCity int, p topology.Prefix, options []provider.EgressOption, k int) []RouteObs {
	var out []RouteObs
	for _, opt := range options {
		if len(out) >= k {
			break
		}
		phys, err := res.ResolvePinned(opt.Route, popCity, p.City, popCity)
		if err != nil {
			continue
		}
		out = append(out, RouteObs{Option: opt, Phys: phys})
	}
	return out
}

// Observe sprays sessions across the prefix's top-K egress routes at the
// PoP (see Egress) and returns the per-window medians. At least one
// resolvable route is required.
func (g *Generator) Observe(popCity int, p topology.Prefix, options []provider.EgressOption) (Trace, error) {
	tr := Trace{PoPCity: popCity, Prefix: p, Routes: Egress(g.res, popCity, p, options, g.cfg.TopK)}
	if len(tr.Routes) == 0 {
		return Trace{}, fmt.Errorf("workload: no resolvable egress route for prefix %d at city %d", p.ID, popCity)
	}
	// Per-window session noise stream, keyed by (prefix, pop) so traces
	// are independent of generation order.
	rng := xrand.New(g.cfg.Seed ^ uint64(p.ID)*0x9e3779b97f4a7c15 ^ uint64(popCity)<<32)
	windows := Windows(g.cfg.Days, g.cfg.WindowMin)
	k := len(tr.Routes)
	// Every window's floors come from one batch call per trace, route
	// by route; the medians live in one buffer, window by window.
	floors := make([][]float64, k)
	routes := make([]netpath.Route, k)
	floorBuf := make([]float64, k*len(windows))
	for j, ro := range tr.Routes {
		floors[j] = floorBuf[j*len(windows) : (j+1)*len(windows)]
		routes[j] = ro.Phys
	}
	g.sim.MinRTTsMs(routes, p, g.cfg.WindowMin, floors)
	medians := make([]float64, k*len(windows))
	tr.Windows = make([]WindowObs, len(windows))
	// One scratch buffer for the whole trace: ExpKth redraws every
	// element.
	jit := make([]uint64, g.cfg.SessionsPW)
	for w, start := range windows {
		obs := WindowObs{Start: start, MedianMinRTTMs: medians[w*k : (w+1)*k : (w+1)*k]}
		for j := range tr.Routes {
			// Median of SessionsPW sampled sessions: the per-session
			// MinRTT sits at the window floor plus a small Exp(0.25)
			// jitter, so the median is the middle order statistic of
			// the jitter.
			obs.MedianMinRTTMs[j] = floors[j][w] + rng.ExpKth(jit, len(jit)/2, 0.25)
		}
		// Volume: the prefix's weight modulated by its local diurnal
		// activity (busier evenings move more bytes).
		local := start/60 + g.phaseHours(p)
		obs.VolumeBytes = p.Weight * (0.4 + diurnalVolume(local))
		tr.Windows[w] = obs
	}
	return tr, nil
}

func (g *Generator) phaseHours(p topology.Prefix) float64 {
	return g.res.Catalog().City(p.City).Loc.Lon / 15
}

// diurnalVolume is a smooth daily activity curve peaking in the evening,
// normalized to [0, 1].
func diurnalVolume(localHour float64) float64 {
	h := localHour
	for h < 0 {
		h += 24
	}
	for h >= 24 {
		h -= 24
	}
	// Two bumps: daytime plateau and evening peak.
	switch {
	case h < 7:
		return 0.1
	case h < 17:
		return 0.5
	case h < 23:
		return 1.0
	default:
		return 0.3
	}
}
