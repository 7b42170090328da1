// Package serve is the long-running query layer over a frozen world:
// the route/latency oracle behind cmd/beatbgpd. It answers the paper's
// question shapes as cheap concurrent queries against the immutable
// artifacts of one core.World — client-prefix → front-end catchment,
// BGP-preferred vs best policy-compliant alternate latency, what-if
// deltas applied on scratch repair chains, and a live epoch cursor
// over the session layer's compiled fault timeline.
//
// Bit-identity contract: every query has a library form (the Answer*
// methods) and an HTTP form (Handler); both produce their JSON through
// Encode, so the daemon's response bytes for a query are identical to
// the library's answer for the same query — concurrency and transport
// are delivery properties, never semantic ones. The HTTP layer is in
// httpd.go.
//
// Overload robustness: queries carry per-query deadlines (Options.
// QueryTimeout, threaded as context down to the cdn/matbgp repair-step
// boundaries), admission is bounded (concurrency limit plus a waiting
// room with deadline-aware shedding — ErrOverload, HTTP 429), and each
// shared repair chain sits behind a circuit breaker: when a chain
// fails or stalls, queries fall back to the last successfully
// installed epoch's answers with an explicit degraded marker, and an
// open breaker stops hammering the failing chain until a cooldown
// probe succeeds. Deterministic fault injection for all of this lives
// in the chaos subpackage (SetChaos).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"beatbgp/internal/bgp"
	"beatbgp/internal/core"
	"beatbgp/internal/delta"
	"beatbgp/internal/serve/chaos"
	"beatbgp/internal/topology"
	"beatbgp/internal/workload"
)

// ErrBadQuery marks query validation failures (unknown prefix, epoch
// out of range, malformed delta). The HTTP layer maps it to 400;
// everything else is a 500.
var ErrBadQuery = errors.New("bad query")

// ErrOverload marks queries shed by the admission gate — the server is
// at its concurrency limit with a full (or deadline-expired) waiting
// room. The HTTP layer maps it to 429 with a Retry-After header; the
// query never ran, so retrying is always safe.
var ErrOverload = errors.New("overloaded")

// ErrDeadline marks queries that were admitted but hit their deadline
// mid-flight. The HTTP layer maps it to 504. Queries without a
// deadline (no QueryTimeout and a background context) never see it.
var ErrDeadline = errors.New("deadline exceeded")

// ErrUnavailable marks queries that could not be answered because a
// shared repair chain is failing (or its circuit is open) and no
// previously installed epoch is available to fall back to. The HTTP
// layer maps it to 503 with a Retry-After header.
var ErrUnavailable = errors.New("unavailable")

func badQuery(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadQuery, fmt.Sprintf(format, args...))
}

// Options tunes the server's overload behavior. The zero value is the
// PR-8 contract: no admission limit, no deadlines, breaker at the
// defaults.
type Options struct {
	// MaxInFlight bounds concurrently executing catchment/latency/
	// whatif queries; 0 means unlimited (no admission gate).
	MaxInFlight int
	// MaxQueue bounds queries waiting for an execution slot; beyond it
	// the gate sheds immediately with ErrOverload.
	MaxQueue int
	// QueryTimeout is the per-query deadline, applied to every
	// admitted query (library and HTTP alike); 0 means none.
	QueryTimeout time.Duration
	// BreakerThreshold is the consecutive repair-chain failure count
	// that opens a chain's circuit (0 selects the default of 3,
	// negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects before
	// letting one probe through (0 selects the default of 250ms).
	BreakerCooldown time.Duration
}

const (
	defaultBreakerThreshold = 3
	defaultBreakerCooldown  = 250 * time.Millisecond
)

// Option configures a Server at construction.
type Option func(*Options)

// WithAdmission bounds concurrent query execution to maxInFlight with
// a waiting room of maxQueue.
func WithAdmission(maxInFlight, maxQueue int) Option {
	return func(o *Options) { o.MaxInFlight, o.MaxQueue = maxInFlight, maxQueue }
}

// WithQueryTimeout sets the per-query deadline.
func WithQueryTimeout(d time.Duration) Option {
	return func(o *Options) { o.QueryTimeout = d }
}

// WithBreaker tunes the repair-chain circuit breaker.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(o *Options) { o.BreakerThreshold, o.BreakerCooldown = threshold, cooldown }
}

// Server answers queries against one frozen world. All methods are
// safe for concurrent use: the world's artifacts are immutable or
// guarded, the per-origin egress repair chains are bgp.EpochChains
// (per-epoch singleflight, like the world CDN's anycast chain), and
// what-if queries build private scratch repairers that never touch
// shared caches.
type Server struct {
	w    *core.World
	opts Options

	// cur is the live epoch cursor: the epoch catchment queries answer
	// at unless the request pins one, advanced by the epoch endpoint.
	cur atomic.Int64

	// admit is the bounded admission gate (nil when unlimited).
	admit *admission

	// chaosInj is the deterministic fault injector of the serving
	// path; nil means no injection. Swappable at runtime (SetChaos).
	chaosInj atomic.Pointer[chaos.Injector]

	// draining flips /readyz to 503 ahead of the listener drain.
	draining atomic.Bool

	// chains holds every repair chain the queries walk, keyed by chain
	// ID: a client-prefix origin's egress chain for the latency query,
	// or anycastChain for the catchment query. Each carries its own
	// circuit breaker and last-good fallback.
	mu     sync.Mutex // guards chains
	chains map[int]*chainState

	// Listener state (httpd.go): set by Start, cleared by Shutdown.
	httpMu sync.Mutex
	http   *httpState
}

// anycastChain is the chain ID of the world CDN's anycast chain; every
// other ID is a client-prefix origin.
const anycastChain = -1

// chainState is one repair chain plus the serving layer's overload
// policy around it: the circuit breaker and the last successfully
// materialized epoch.
type chainState struct {
	source func(ctx context.Context, epoch int) (*bgp.RIB, error)
	br     breaker
	good   atomic.Pointer[ribAt]
}

// ribAt is one chain's last successfully materialized answer state:
// the degraded-fallback payload.
type ribAt struct {
	rib   *bgp.RIB
	epoch int
}

// New returns a Server over the frozen world.
func New(w *core.World, opts ...Option) *Server {
	o := Options{}
	for _, fn := range opts {
		fn(&o)
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = defaultBreakerThreshold
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = defaultBreakerCooldown
	}
	return &Server{
		w:      w,
		opts:   o,
		admit:  newAdmission(o.MaxInFlight, o.MaxQueue),
		chains: make(map[int]*chainState),
	}
}

// SetChaos installs (or, with nil, removes) the deterministic fault
// injector on the serving path. Safe to call while serving — it is the
// middleware seam the overload tests flip mid-run.
func (s *Server) SetChaos(inj *chaos.Injector) { s.chaosInj.Store(inj) }

// queryCtx applies the per-query deadline, if one is configured.
func (s *Server) queryCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.opts.QueryTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.opts.QueryTimeout)
}

// prefix validates and resolves a client prefix ID.
func (s *Server) prefix(id int) (topology.Prefix, error) {
	if id < 0 || id >= len(s.w.Topo.Prefixes) {
		return topology.Prefix{}, badQuery("prefix %d out of range [0,%d)", id, len(s.w.Topo.Prefixes))
	}
	return s.w.Topo.Prefixes[id], nil
}

// checkTime rejects a non-finite query instant: it selects no epoch
// and has no JSON encoding.
func checkTime(name string, t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return badQuery("%s=%v is not a finite minute", name, t)
	}
	return nil
}

// checkEpoch validates an epoch index against the world's sequence.
func (s *Server) checkEpoch(e int) error {
	if e < 0 || e >= s.w.Epochs.Len() {
		return badQuery("epoch %d out of range [0,%d)", e, s.w.Epochs.Len())
	}
	return nil
}

// CurrentEpoch returns the live epoch cursor.
func (s *Server) CurrentEpoch() int { return int(s.cur.Load()) }

// chain returns (creating on first use) the repair chain with the ID:
// the world CDN's anycast chain, or a new egress chain toward the
// origin.
func (s *Server) chain(id int) *chainState {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.chains[id]
	if cs == nil {
		cs = &chainState{br: newBreaker(s.opts)}
		if id == anycastChain {
			cs.source = s.w.CDN.AnycastRIBAtContext
		} else {
			cs.source = bgp.NewEpochChain(s.w.Routes, []bgp.Announcement{{Origin: id}}, s.w.Epochs).RIBAt
		}
		s.chains[id] = cs
	}
	return cs
}

// chainName names a chain in error text.
func chainName(id int) string {
	if id == anycastChain {
		return "anycast"
	}
	return fmt.Sprintf("origin %d", id)
}

// chainRIB returns the chain's RIB at the epoch's cumulative down set
// — or, when the chain fails, stalls past the deadline, or its circuit
// is open, the chain's last successfully materialized epoch with
// degraded reported true. The returned epoch is the one actually
// answered (the fallback's on the degraded path).
func (s *Server) chainRIB(ctx context.Context, id, epoch int) (rib *bgp.RIB, at int, degraded bool, err error) {
	cs := s.chain(id)
	if !cs.br.allow() {
		return cs.fallback(fmt.Errorf("%w: %s repair chain circuit open", ErrUnavailable, chainName(id)))
	}
	rib, err = s.fetch(ctx, cs, id, epoch)
	if err == nil {
		cs.br.success()
		cs.good.Store(&ribAt{rib: rib, epoch: epoch})
		return rib, epoch, false, nil
	}
	cs.br.failure()
	return cs.fallback(chainErr(ctx, err))
}

// fallback answers from the chain's last good epoch, or propagates the
// chain's error when nothing was ever materialized.
func (cs *chainState) fallback(cause error) (*bgp.RIB, int, bool, error) {
	if g := cs.good.Load(); g != nil {
		return g.rib, g.epoch, true, nil
	}
	return nil, 0, false, cause
}

// chainErr types a repair-chain failure: a deadline hit mid-chain is
// ErrDeadline, anything else is ErrUnavailable.
func chainErr(ctx context.Context, err error) error {
	if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return fmt.Errorf("%w: %v", ErrDeadline, err)
	}
	return fmt.Errorf("%w: %v", ErrUnavailable, err)
}

// fetch asks the chain for the epoch, behind the chaos seam: every
// request the breaker lets through draws one chaos attempt first
// (injected stalls honor the query's deadline; injected errors count as
// chain failures).
func (s *Server) fetch(ctx context.Context, cs *chainState, id, epoch int) (*bgp.RIB, error) {
	if inj := s.chaosInj.Load(); inj != nil {
		stall, ierr := inj.RepairFault(id, epoch)
		if stall > 0 {
			if err := chaos.Sleep(ctx, stall); err != nil {
				return nil, err
			}
		}
		if ierr != nil {
			return nil, ierr
		}
	}
	return cs.source(ctx, epoch)
}

// CatchmentResp answers "which front-end site does BGP anycast hand
// this client prefix to" at one epoch of the fault timeline. Degraded
// reports that the answer came from a fallback epoch because the
// repair chain was failing; Epoch is then the epoch actually answered.
type CatchmentResp struct {
	Query    string `json:"query"`
	World    string `json:"world"`
	Prefix   int    `json:"prefix"`
	Epoch    int    `json:"epoch"`
	Site     int    `json:"site"`
	SiteASN  int    `json:"site_asn"`
	SiteCity int    `json:"site_city"`
	Degraded bool   `json:"degraded,omitempty"`
}

// AnswerCatchment resolves the prefix's anycast catchment at the given
// epoch; epoch < 0 means the live cursor.
func (s *Server) AnswerCatchment(prefixID, epoch int) (CatchmentResp, error) {
	return s.AnswerCatchmentContext(context.Background(), prefixID, epoch)
}

// AnswerCatchmentContext is AnswerCatchment under the server's
// admission gate and per-query deadline, honoring ctx.
func (s *Server) AnswerCatchmentContext(ctx context.Context, prefixID, epoch int) (CatchmentResp, error) {
	ctx, cancel := s.queryCtx(ctx)
	defer cancel()
	release, err := s.admit.acquire(ctx)
	if err != nil {
		return CatchmentResp{}, err
	}
	defer release()
	p, err := s.prefix(prefixID)
	if err != nil {
		return CatchmentResp{}, err
	}
	if epoch < 0 {
		epoch = s.CurrentEpoch()
	}
	if err := s.checkEpoch(epoch); err != nil {
		return CatchmentResp{}, err
	}
	rib, at, degraded, err := s.chainRIB(ctx, anycastChain, epoch)
	if err != nil {
		return CatchmentResp{}, err
	}
	resp, err := s.catchmentVia(rib, p, at)
	if err != nil {
		return CatchmentResp{}, err
	}
	resp.Degraded = degraded
	return resp, nil
}

func (s *Server) catchmentVia(rib *bgp.RIB, p topology.Prefix, epoch int) (CatchmentResp, error) {
	_, site, err := s.w.CDN.PhysViaRIB(rib, p)
	if err != nil {
		return CatchmentResp{}, badQuery("prefix %d: %v", p.ID, err)
	}
	st := s.w.CDN.Sites[site]
	return CatchmentResp{
		Query:    "catchment",
		World:    s.w.Key,
		Prefix:   p.ID,
		Epoch:    epoch,
		Site:     site,
		SiteASN:  st.AS.ASN,
		SiteCity: st.City,
	}, nil
}

// EgressObs is one measured egress option: the policy-ordered route
// and its round-trip latency at the query instant.
type EgressObs struct {
	Link     int     `json:"link"`
	Neighbor int     `json:"neighbor"`
	Class    string  `json:"class"`
	PathLen  int     `json:"path_len"`
	RTTMs    float64 `json:"rtt_ms"`
}

// LatencyResp answers the paper's headline comparison for one client
// prefix at one instant: what BGP's most-preferred policy-compliant
// egress delivers vs the best alternate the provider could have used.
// DeltaMs = preferred − best alternate; positive means BGP is leaving
// latency on the table. Degraded reports a fallback-epoch answer
// (Epoch is then the epoch actually answered, not the one t selects).
type LatencyResp struct {
	Query     string     `json:"query"`
	World     string     `json:"world"`
	Prefix    int        `json:"prefix"`
	TMin      float64    `json:"t_min"`
	Epoch     int        `json:"epoch"`
	PoPCity   int        `json:"pop_city"`
	Options   int        `json:"options"`
	Preferred EgressObs  `json:"preferred"`
	BestAlt   *EgressObs `json:"best_alternate,omitempty"`
	DeltaMs   float64    `json:"delta_ms"`
	Degraded  bool       `json:"degraded,omitempty"`
}

// AnswerLatency measures BGP-preferred vs best-alternate latency for
// the prefix at minute t, with the fault timeline's route changes
// repaired in (the epoch in effect at t selects the egress RIB).
func (s *Server) AnswerLatency(prefixID int, t float64) (LatencyResp, error) {
	return s.AnswerLatencyContext(context.Background(), prefixID, t)
}

// AnswerLatencyContext is AnswerLatency under the server's admission
// gate and per-query deadline, honoring ctx.
func (s *Server) AnswerLatencyContext(ctx context.Context, prefixID int, t float64) (LatencyResp, error) {
	ctx, cancel := s.queryCtx(ctx)
	defer cancel()
	release, err := s.admit.acquire(ctx)
	if err != nil {
		return LatencyResp{}, err
	}
	defer release()
	p, err := s.prefix(prefixID)
	if err != nil {
		return LatencyResp{}, err
	}
	if err := checkTime("t", t); err != nil {
		return LatencyResp{}, err
	}
	epoch := s.w.Epochs.At(t)
	rib, at, degraded, err := s.chainRIB(ctx, p.Origin, epoch)
	if err != nil {
		return LatencyResp{}, err
	}
	resp, err := s.latencyVia(rib, p, t, at)
	if err != nil {
		return LatencyResp{}, err
	}
	resp.Degraded = degraded
	return resp, nil
}

// latencyVia measures the egress routes the serving PoP observes under
// the toward-prefix RIB (workload.Egress at the world's TopK, the route
// set Fig 1 compares). Shared by the timeline and what-if paths.
func (s *Server) latencyVia(rib *bgp.RIB, p topology.Prefix, t float64, epoch int) (LatencyResp, error) {
	pop := s.w.Prov.ServingPoP(p.City)
	routes := workload.Egress(s.w.Res, pop, p, s.w.Prov.EgressOptions(rib, pop), s.w.Cfg.Workload.TopK)
	if len(routes) == 0 {
		return LatencyResp{}, badQuery("prefix %d: no resolvable egress route at PoP city %d", p.ID, pop)
	}
	resp := LatencyResp{
		Query:   "latency",
		World:   s.w.Key,
		Prefix:  p.ID,
		TMin:    t,
		Epoch:   epoch,
		PoPCity: pop,
		Options: len(routes),
	}
	for i, ro := range routes {
		o := EgressObs{
			Link:     ro.Option.Link,
			Neighbor: ro.Option.Neighbor,
			Class:    ro.Option.Class.String(),
			PathLen:  ro.Option.Route.PathLen(),
			RTTMs:    s.w.Sim.RouteRTTMs(ro.Phys, p, t),
		}
		switch {
		case i == 0:
			resp.Preferred = o
		case resp.BestAlt == nil || o.RTTMs < resp.BestAlt.RTTMs:
			resp.BestAlt, resp.DeltaMs = &o, resp.Preferred.RTTMs-o.RTTMs
		}
	}
	return resp, nil
}

// WhatIfReq is a hypothetical: a list of topology deltas folded, in
// order, into a scratch repair chain over the all-links-up baseline,
// then one catchment or latency query answered under the result. The
// shared world is never mutated.
type WhatIfReq struct {
	Deltas []delta.Delta `json:"deltas"`
	Kind   string        `json:"kind"` // "catchment" | "latency"
	Prefix int           `json:"prefix"`
	TMin   float64       `json:"t_min"` // latency only
}

// WhatIfResp carries the hypothetical's cumulative down set and the
// nested answer.
type WhatIfResp struct {
	Query     string         `json:"query"`
	World     string         `json:"world"`
	Kind      string         `json:"kind"`
	Down      []int          `json:"down"`
	Catchment *CatchmentResp `json:"catchment,omitempty"`
	Latency   *LatencyResp   `json:"latency,omitempty"`
}

// AnswerWhatIf applies the request's deltas on a private repair chain
// (bgp.StartRepair against the world's engine — incremental engines
// repair, others rebuild; answers are bit-identical either way) and
// answers the nested query against the resulting RIB.
func (s *Server) AnswerWhatIf(req WhatIfReq) (WhatIfResp, error) {
	return s.AnswerWhatIfContext(context.Background(), req)
}

// AnswerWhatIfContext is AnswerWhatIf under the server's admission
// gate and per-query deadline; the deadline is threaded through every
// scratch-chain Apply, so a stalled hypothetical is abandoned at a
// repair-stage boundary instead of running to completion. Scratch
// chains have no installed epochs, so there is no degraded fallback —
// a deadline hit is ErrDeadline.
func (s *Server) AnswerWhatIfContext(ctx context.Context, req WhatIfReq) (WhatIfResp, error) {
	ctx, cancel := s.queryCtx(ctx)
	defer cancel()
	release, err := s.admit.acquire(ctx)
	if err != nil {
		return WhatIfResp{}, err
	}
	defer release()
	p, err := s.prefix(req.Prefix)
	if err != nil {
		return WhatIfResp{}, err
	}
	if err := checkTime("t_min", req.TMin); err != nil {
		return WhatIfResp{}, err
	}
	nLinks := len(s.w.Topo.Links)
	for i, d := range req.Deltas {
		if err := d.Validate(nLinks); err != nil {
			return WhatIfResp{}, badQuery("delta %d: %v", i, err)
		}
	}
	var anns []bgp.Announcement
	switch req.Kind {
	case "catchment":
		anns = s.w.CDN.Announcements(nil)
	case "latency":
		anns = []bgp.Announcement{{Origin: p.Origin}}
	default:
		return WhatIfResp{}, badQuery("kind %q is not a what-if query (valid kinds: catchment, latency)", req.Kind)
	}
	rep, err := bgp.StartRepair(s.w.Routes, anns)
	if err != nil {
		return WhatIfResp{}, err
	}
	down := map[int]bool{}
	for _, d := range req.Deltas {
		if err := bgp.ApplyContext(ctx, rep, d); err != nil {
			if ctx.Err() != nil {
				return WhatIfResp{}, fmt.Errorf("%w: %v", ErrDeadline, err)
			}
			return WhatIfResp{}, err
		}
		down = delta.Apply(down, d)
	}
	rib, err := rep.RIB()
	if err != nil {
		return WhatIfResp{}, err
	}
	resp := WhatIfResp{Query: "whatif", World: s.w.Key, Kind: req.Kind, Down: sortedLinks(down)}
	switch req.Kind {
	case "catchment":
		c, err := s.catchmentVia(rib, p, -1)
		if err != nil {
			return WhatIfResp{}, err
		}
		c.Epoch = -1 // hypothetical state, not a timeline epoch
		resp.Catchment = &c
	case "latency":
		l, err := s.latencyVia(rib, p, req.TMin, -1)
		if err != nil {
			return WhatIfResp{}, err
		}
		resp.Latency = &l
	}
	return resp, nil
}

// EpochResp describes one position of the live fault/session timeline.
type EpochResp struct {
	Query    string  `json:"query"`
	World    string  `json:"world"`
	Epoch    int     `json:"epoch"`
	Epochs   int     `json:"epochs"`
	StartMin float64 `json:"start_min"`
	EndMin   float64 `json:"end_min"`
	Down     []int   `json:"down"`
}

// AnswerEpoch reads or moves the live epoch cursor: advance is a
// relative move (0 reads), set pins an absolute epoch (nil leaves the
// cursor to advance). Out-of-range moves are rejected, the cursor
// unchanged. The cursor endpoint is deliberately outside the admission
// gate: operators must be able to steer a saturated daemon.
func (s *Server) AnswerEpoch(advance int, set *int) (EpochResp, error) {
	seq := s.w.Epochs
	for {
		cur := s.cur.Load()
		next := cur + int64(advance)
		if set != nil {
			next = int64(*set)
		}
		if next < 0 || next >= int64(seq.Len()) {
			return EpochResp{}, badQuery("epoch %d out of range [0,%d)", next, seq.Len())
		}
		if s.cur.CompareAndSwap(cur, next) {
			return s.epochResp(int(next)), nil
		}
	}
}

func (s *Server) epochResp(e int) EpochResp {
	seq := s.w.Epochs
	ep := seq.Epoch(e)
	end := seq.End()
	if e+1 < seq.Len() {
		end = seq.Epoch(e + 1).Start
	}
	return EpochResp{
		Query:    "epoch",
		World:    s.w.Key,
		Epoch:    e,
		Epochs:   seq.Len(),
		StartMin: ep.Start,
		EndMin:   end,
		Down:     append([]int{}, ep.Down...),
	}
}

// WorldResp summarizes the served world.
type WorldResp struct {
	Query    string `json:"query"`
	World    string `json:"world"`
	ASes     int    `json:"ases"`
	Links    int    `json:"links"`
	Sites    int    `json:"sites"`
	Prefixes int    `json:"prefixes"`
	Epochs   int    `json:"epochs"`
}

// AnswerWorld reports the frozen world's shape and content key.
func (s *Server) AnswerWorld() WorldResp {
	return WorldResp{
		Query:    "world",
		World:    s.w.Key,
		ASes:     s.w.Topo.NumASes(),
		Links:    len(s.w.Topo.Links),
		Sites:    len(s.w.CDN.Sites),
		Prefixes: len(s.w.Topo.Prefixes),
		Epochs:   s.w.Epochs.Len(),
	}
}

// sortedLinks flattens a down set into a sorted slice (empty, not nil,
// so the JSON field is always an array).
func sortedLinks(down map[int]bool) []int {
	out := make([]int, 0, len(down))
	for l, v := range down {
		if v {
			out = append(out, l)
		}
	}
	sort.Ints(out)
	return out
}
