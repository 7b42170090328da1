// Package session is the event-driven BGP session layer: a deterministic
// replay of per-peering-link session dynamics over an injected fault
// timeline (internal/faults). Where the closed-form reference model
// (bgp.ConvergenceMinutes) charges a fixed base-plus-per-hop cost for
// every convergence event, this package makes both terms EMERGENT from
// mechanism:
//
//   - detection comes from timers — a hold timer refreshed by keepalives
//     on a per-link phase grid, or an optional BFD detection timer on a
//     sub-second packet grid with a detection multiplier;
//   - a fault shorter than the detection window is invisible: the session
//     survives and no withdrawal ever propagates;
//   - re-advertisement after recovery pays the connect-retry and
//     handshake latency and is batched by the MRAI;
//   - repeated flaps accrue route-flap-damping penalty, and a suppressed
//     route stays unusable long after the link is physically healthy —
//     emergent unreachability no closed form predicts.
//
// Each link is replayed independently on a discrete-event clock of typed
// event values (see clock.go) through the RFC 4271 FSM (fsm.go); the
// result is a History: per-link outage episodes, control-plane-down
// spans, and damping suppression spans, queryable by experiments and
// compiled by Deltas into the epoch sequence (internal/delta) that every
// route pipeline and netsim read (a link is unusable when it is
// physically down OR its route is withdrawn/suppressed).
//
// # Determinism contract
//
// Replay is a pure function of (timeline, links, Config, seed, horizon).
// Per-link randomness (keepalive and BFD phases) derives from
// xrand.Derive(seed, key, link) — keyed by the link, never by scheduling
// — and the event loop breaks time ties by insertion order, so a History
// and everything computed from it is byte-identical at any worker count,
// satisfying the internal/par contract.
//
// # Calibration to the reference model
//
// The defaults are chosen so that, for a detected fault, the emergent
// blackhole matches the closed form in expectation: Hold=36s with
// Keepalive=12s gives a detection latency uniform on [Hold−KA, Hold] =
// [24s, 36s], mean 30s = bgp.ConvergenceBaseMin; MRAI=30s per explored
// AS hop = bgp.ConvergencePerHopMin. Any single event may differ from
// the closed form by up to KA/2 = ±6s (0.1 min) of phase — the
// documented tolerance of the differential test in internal/core.
package session

import (
	"fmt"
	"math"
)

// Default timer and damping constants. Hold/keepalive are the classic
// 3:1 BGP defaults scaled so mean detection matches the reference
// model's base term (see the package comment); damping thresholds are
// the RFC 2439 / cisco defaults.
const (
	DefaultHoldSec         = 36.0
	DefaultConnectRetrySec = 30.0
	DefaultMsgDelaySec     = 0.5
	DefaultMRAISec         = 30.0

	DefaultDampHalfLifeSec = 900.0  // 15 min
	DefaultDampPenalty     = 1000.0 // per flap
	DefaultDampSuppress    = 2000.0 // suppress above
	DefaultDampReuse       = 750.0  // reuse below

	DefaultBFDIntervalMs = 300.0
	DefaultBFDMultiplier = 3
)

// dampMaxSuppressSec caps how long one flap can suppress a route (the
// RFC 2439 max-suppress time, 60 min), which in turn caps the accrued
// penalty at Reuse·2^(MaxSuppress/HalfLife).
const dampMaxSuppressSec = 3600.0

// Config parameterizes the session layer. The zero value means "all
// defaults" (booleans keep their zero meaning: damping on, BFD off), so
// it embeds in a larger experiment config without ceremony. Whatever
// the damping settings, one flap suppresses for at most an hour
// (dampMaxSuppressSec).
type Config struct {
	// HoldSec is the negotiated hold time: the session drops when no
	// keepalive arrives for this long.
	HoldSec float64
	// KeepaliveSec is the peer's keepalive send interval. Defaults to
	// HoldSec/3 when only HoldSec is set, per BGP convention.
	KeepaliveSec float64
	// ConnectRetrySec spaces reconnection attempts while the session is
	// down.
	ConnectRetrySec float64
	// MsgDelaySec is the one-way message-plus-processing delay charged
	// per handshake step (transport open, OPEN, KEEPALIVE).
	MsgDelaySec float64
	// MRAISec is the minimum route advertisement interval: spacing of
	// successive advertisements on a session, and the per-AS-hop cost of
	// path exploration.
	MRAISec float64

	// DisableDamping turns route-flap damping off (penalty still
	// accrues for observability, but never suppresses).
	DisableDamping bool
	// DampHalfLifeSec is the exponential decay half-life of the flap
	// penalty.
	DampHalfLifeSec float64
	// DampPenalty is the penalty added per flap (session down event).
	DampPenalty float64
	// DampSuppress: a route whose penalty reaches this is suppressed.
	DampSuppress float64
	// DampReuse: a suppressed route is announced again once its penalty
	// decays below this.
	DampReuse float64

	// BFD enables the fast-detection timer on the peer's BFD packet grid
	// in parallel with the hold timer; whichever detects first wins.
	BFD bool
	// BFDIntervalMs is the BFD control-packet interval.
	BFDIntervalMs float64
	// BFDMultiplier is the detection multiplier: liveness is lost after
	// BFDMultiplier missed intervals.
	BFDMultiplier int
}

// ApplyDefaults fills zero fields with defaults and returns the
// completed config. KeepaliveSec defaults to HoldSec/3 so tuning only
// the hold timer keeps the conventional 3:1 ratio.
func (c Config) ApplyDefaults() Config {
	if c.HoldSec == 0 {
		c.HoldSec = DefaultHoldSec
	}
	if c.KeepaliveSec == 0 {
		c.KeepaliveSec = c.HoldSec / 3
	}
	if c.ConnectRetrySec == 0 {
		c.ConnectRetrySec = DefaultConnectRetrySec
	}
	if c.MsgDelaySec == 0 {
		c.MsgDelaySec = DefaultMsgDelaySec
	}
	if c.MRAISec == 0 {
		c.MRAISec = DefaultMRAISec
	}
	if c.DampHalfLifeSec == 0 {
		c.DampHalfLifeSec = DefaultDampHalfLifeSec
	}
	if c.DampPenalty == 0 {
		c.DampPenalty = DefaultDampPenalty
	}
	if c.DampSuppress == 0 {
		c.DampSuppress = DefaultDampSuppress
	}
	if c.DampReuse == 0 {
		c.DampReuse = DefaultDampReuse
	}
	if c.BFDIntervalMs == 0 {
		c.BFDIntervalMs = DefaultBFDIntervalMs
	}
	if c.BFDMultiplier == 0 {
		c.BFDMultiplier = DefaultBFDMultiplier
	}
	return c
}

// Validate rejects configurations the replay cannot make sense of. It
// validates the post-default config, so a partially-specified Config is
// judged as it will actually run.
func (c Config) Validate() error {
	c = c.ApplyDefaults()
	pos := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("session: %s = %v must be finite and positive", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"HoldSec", c.HoldSec}, {"KeepaliveSec", c.KeepaliveSec},
		{"ConnectRetrySec", c.ConnectRetrySec},
		{"MsgDelaySec", c.MsgDelaySec}, {"MRAISec", c.MRAISec},
		{"DampHalfLifeSec", c.DampHalfLifeSec},
		{"DampPenalty", c.DampPenalty}, {"DampSuppress", c.DampSuppress},
		{"DampReuse", c.DampReuse},
		{"BFDIntervalMs", c.BFDIntervalMs},
	} {
		if err := pos(f.name, f.v); err != nil {
			return err
		}
	}
	if c.KeepaliveSec >= c.HoldSec {
		return fmt.Errorf("session: KeepaliveSec %v must be below HoldSec %v (the hold timer would expire between keepalives)", c.KeepaliveSec, c.HoldSec)
	}
	if c.DampReuse >= c.DampSuppress {
		return fmt.Errorf("session: DampReuse %v must be below DampSuppress %v", c.DampReuse, c.DampSuppress)
	}
	if c.BFDMultiplier < 1 {
		return fmt.Errorf("session: BFDMultiplier %d must be at least 1", c.BFDMultiplier)
	}
	const hourSec = 3600.0
	if c.HoldSec > hourSec || c.ConnectRetrySec > hourSec || c.MRAISec > hourSec {
		return fmt.Errorf("session: hold/retry/MRAI timers beyond an hour are a config typo (hold=%v retry=%v mrai=%v)", c.HoldSec, c.ConnectRetrySec, c.MRAISec)
	}
	return nil
}

// MeanDetectSec is the expected detection latency for a long-lived fault
// under this config: the BFD detection time when BFD is on (detection
// multiplier × interval, phase-independent to first order), otherwise
// the hold-timer expectation Hold − KA/2 over a uniform keepalive phase.
func (c Config) MeanDetectSec() float64 {
	c = c.ApplyDefaults()
	if c.BFD {
		return float64(c.BFDMultiplier) * c.BFDIntervalMs / 1e3
	}
	return c.HoldSec - c.KeepaliveSec/2
}

// ExplorationMinutes is the emergent path-exploration cost for a route
// whose replacement spans `hops` AS hops: one MRAI of advertisement
// batching per hop. With the default MRAI this equals the reference
// model's per-hop term.
func (c Config) ExplorationMinutes(hops int) float64 {
	c = c.ApplyDefaults()
	if hops < 0 {
		hops = 0
	}
	return c.MRAISec / 60 * float64(hops)
}

// penaltyCeiling is the maximum accrued damping penalty: the value that
// decays to DampReuse in exactly dampMaxSuppressSec (RFC 2439 §4.2).
func (c Config) penaltyCeiling() float64 {
	return c.DampReuse * math.Exp2(dampMaxSuppressSec/c.DampHalfLifeSec)
}
