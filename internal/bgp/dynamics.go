package bgp

import (
	"fmt"
	"math"
)

// Convergence timing model for failure events. BGP does not fail over
// instantly: after a withdrawal, routers explore progressively longer
// paths, gated by the MRAI advertisement interval, so convergence time
// grows with the AS-level distance the new route spans. The default
// constants follow the classic measurements (Labovitz et al.): tens of
// seconds of base detection/processing plus roughly half a minute of path
// exploration per AS hop of the replacement route.
//
// This closed form is the REFERENCE model. The event-driven session layer
// (internal/session) makes both terms emergent — detection from
// hold/keepalive or BFD timers, exploration from MRAI batching — and is
// differentially tested against this model the same way internal/par
// keeps its serial oracle.

// Default convergence model constants, in minutes.
const (
	// ConvergenceBaseMin covers failure detection and local withdrawal
	// processing.
	ConvergenceBaseMin = 0.5
	// ConvergencePerHopMin is the exploration cost per AS hop of the
	// route that replaces the withdrawn one.
	ConvergencePerHopMin = 0.5
)

// ConvergenceModel parameterizes the closed-form convergence estimate.
// The zero value selects the default (Labovitz-calibrated) constants, so
// it can sit inside a larger config without ceremony; explicit fields let
// experiments tune the legacy model through the same surface that tunes
// the timer-driven session layer.
type ConvergenceModel struct {
	// BaseMin is the failure-detection plus local-processing floor paid by
	// every convergence event, in minutes.
	BaseMin float64
	// PerHopMin is the path-exploration cost per AS hop of the replacement
	// route, in minutes.
	PerHopMin float64
}

// DefaultConvergence is the reference model with the classic constants.
var DefaultConvergence = ConvergenceModel{BaseMin: ConvergenceBaseMin, PerHopMin: ConvergencePerHopMin}

// ApplyDefaults fills zero fields with the default constants and returns
// the completed model. Explicit zero is not distinguishable from unset —
// a model with a genuinely free term must use a tiny epsilon instead.
func (m ConvergenceModel) ApplyDefaults() ConvergenceModel {
	if m.BaseMin == 0 {
		m.BaseMin = ConvergenceBaseMin
	}
	if m.PerHopMin == 0 {
		m.PerHopMin = ConvergencePerHopMin
	}
	return m
}

// Validate rejects nonsensical model constants: negative, NaN, or
// infinite terms, or terms beyond a day (a convergence "model" slower
// than any observed outage is a config typo, not a scenario).
func (m ConvergenceModel) Validate() error {
	const dayMin = 24 * 60.0
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"BaseMin", m.BaseMin}, {"PerHopMin", m.PerHopMin},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("bgp: convergence %s = %v must be finite and non-negative", f.name, f.v)
		}
		if f.v > dayMin {
			return fmt.Errorf("bgp: convergence %s = %v exceeds a day", f.name, f.v)
		}
	}
	return nil
}

// Minutes estimates how long an AS that was using oldRoute is without
// connectivity after the failure, before newRoute (the post-convergence
// route) is installed. An invalid newRoute means the destination is
// partitioned: convergence never completes within the outage and the
// caller should treat the whole outage as downtime. An AS whose route is
// unchanged by the failure never saw a withdrawal and converges
// instantly; so does an AS at the origin itself (a zero-hop path has
// nothing to explore). Zero model fields mean the default constants.
func (m ConvergenceModel) Minutes(oldRoute, newRoute Route) (minutes float64, converges bool) {
	m = m.ApplyDefaults()
	if !newRoute.Valid {
		return 0, false
	}
	if !oldRoute.Valid {
		// Nothing was lost; the "new" route is just the current one.
		return 0, true
	}
	if sameRoute(oldRoute, newRoute) {
		// The failure did not touch this AS's path: no withdrawal, no
		// exploration, no blackhole.
		return 0, true
	}
	return m.BaseMin + m.PerHopMin*float64(ExplorationHops(newRoute)), true
}

// ExplorationHops returns the AS-hop count the exploration term scales
// with: the replacement route's path length minus the origin itself,
// clamped at zero for degenerate hand-built routes. Exposed so the
// session layer's emergent model quantizes exploration over the same hop
// count the closed form charges for.
func ExplorationHops(newRoute Route) int {
	hops := newRoute.PathLen() - 1
	if hops < 0 {
		hops = 0
	}
	return hops
}

// ConvergenceMinutes is DefaultConvergence.Minutes: the reference
// closed-form estimate with the classic constants.
func ConvergenceMinutes(oldRoute, newRoute Route) (minutes float64, converges bool) {
	return DefaultConvergence.Minutes(oldRoute, newRoute)
}

// sameRoute reports whether the two valid routes are the same path over
// the same links.
func sameRoute(a, b Route) bool {
	if a.Link != b.Link || len(a.Path) != len(b.Path) || len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return false
		}
	}
	return true
}
