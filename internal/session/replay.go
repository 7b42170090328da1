package session

import (
	"fmt"
	"math"
	"sort"

	"beatbgp/internal/faults"
	"beatbgp/internal/xrand"
)

// phaseKey salts the per-link RNG streams so keepalive/BFD phases are
// decoupled from every other consumer of the scenario seed.
const phaseKey = 0x5e551017

// outage is one outage EPISODE on a link: a maximal span from the first
// physical down instant to the moment the route is usable again. An
// episode may cover several merged fault windows (when the session never
// stabilizes in between) and several session flaps. All times are
// simulated minutes.
type outage struct {
	Link  int
	Start float64 // first physical-down minute of the episode
	End   float64 // last physical recovery minute seen (capped at the horizon)
	// Detected reports whether any timer ever noticed: an undetected
	// episode was shorter than the detection window, the session
	// survived, and no withdrawal propagated.
	Detected bool
	// Detector is the FSM input that dropped the session first:
	// evHoldExpire for the hold timer, evLinkDown for BFD.
	Detector fsmEv
	DetectAt float64 // minute the session dropped (valid when Detected)
	// UsableAt is the minute the route is usable again: the
	// re-advertisement instant for a detected episode (post-handshake,
	// MRAI- and damping-gated), the physical recovery for an undetected
	// one. Control-plane downtime is [DetectAt, UsableAt).
	UsableAt float64
	Flaps    int // session drops within the episode
	// Suppressed reports route-flap damping held the re-advertisement
	// beyond session re-establishment.
	Suppressed bool
}

// transition is one recorded BGP FSM state change.
type transition struct {
	Link     int
	AtMin    float64
	From, To fsmState
	Ev       fsmEv
}

// linkHistory is the replay result for one link, all times in minutes.
type linkHistory struct {
	outages     []outage
	ctlDown     []faults.Window // route withdrawn/suppressed spans
	suppressed  []faults.Window // damping suppression spans
	transitions []transition
	flaps       int
}

// History is the replayed session dynamics of every requested link over
// one fault timeline. It is immutable after Replay and safe for
// concurrent reads. Its Deltas compile the link-usability stream: a link
// is down when it is physically down OR its route is withdrawn/suppressed
// — the emergent control-plane shadow the closed-form model approximates.
type History struct {
	tl         *faults.Timeline
	cfg        Config
	horizonMin float64
	links      []int
	perLink    map[int]*linkHistory
}

// Replay runs the session layer over the timeline's fault windows for
// the given links (nil means every faulted link) and returns the
// History. It is a pure function of its arguments: per-link phases
// derive from (seed, link), never from scheduling, so the result is
// byte-identical regardless of caller parallelism.
func Replay(tl *faults.Timeline, links []int, cfg Config, seed uint64, horizonMin float64) (*History, error) {
	if tl == nil {
		return nil, fmt.Errorf("session: nil timeline")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.ApplyDefaults()
	if math.IsNaN(horizonMin) || math.IsInf(horizonMin, 0) || horizonMin <= 0 {
		return nil, fmt.Errorf("session: horizon %v must be finite and positive", horizonMin)
	}
	if links == nil {
		links = tl.FaultedLinks()
	} else {
		links = append([]int(nil), links...)
		sort.Ints(links)
		links = dedupeInts(links)
	}
	h := &History{
		tl:         tl,
		cfg:        cfg,
		horizonMin: horizonMin,
		links:      links,
		perLink:    make(map[int]*linkHistory, len(links)),
	}
	for _, link := range links {
		rng := xrand.Derive(seed, phaseKey, uint64(link))
		h.perLink[link] = replayLink(link, tl.DownWindows(link), cfg, rng, horizonMin)
	}
	return h, nil
}

func dedupeInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// episode is an in-flight outage, in seconds.
type episode struct {
	open       bool
	start, end float64
	detected   bool
	detector   fsmEv
	detectAt   float64
	flaps      int
	suppressed bool
}

// evKind is what happens when an event pops. The kinds below numTimers
// are timers: each has one generation counter, and arming a timer voids
// every earlier event of its kind. Fault-window edges are never voided.
type evKind uint8

const (
	kHold      evKind = iota // the hold timer expires
	kBFD                     // BFD's detection time passes with no packet
	kRetry                   // the connect-retry timer fires
	kHandshake               // the next handshake message arrives
	kAdvertise               // the MRAI- and damping-gated re-advertisement
	kPhysDown                // fault window win starts
	kPhysUp                  // fault window win ends
)

const numTimers = kPhysDown

// linkReplay is one link's replay state: the session FSM, its timers and
// the damping and outage bookkeeping, all times in SECONDS.
type linkReplay struct {
	cfg  Config
	link int
	ws   []faults.Window // merged physical outage spans
	lh   *linkHistory
	c    clock
	gen  [numTimers]uint64

	// The peer's keepalive (and BFD packet) arrivals sit on a per-link
	// phase grid: phase + n·period. The phase is the only randomness in
	// the replay.
	kaPhase, bfdInt, bfdPhase float64

	st                      fsmState
	holdPending, bfdPending bool
	holdAt, bfdAt           float64

	penalty, penaltyAt float64
	suppressedUntil    float64
	lastAdv            float64

	ctlOpen  bool
	ctlStart float64
	ctlDown  []faults.Window
	supp     []faults.Window

	epi episode
}

// replayLink runs one link's discrete-event loop. windows are the merged
// physical outage spans in MINUTES; everything inside runs in SECONDS
// (the natural unit of the timers) and converts at the boundary.
func replayLink(link int, windows []faults.Window, cfg Config, rng *xrand.Rand, horizonMin float64) *linkHistory {
	horizon := horizonMin * 60
	r := &linkReplay{cfg: cfg, link: link, lh: &linkHistory{}}
	for _, w := range windows {
		s, e := w.Start*60, w.End*60
		if s >= horizon {
			break
		}
		if e > horizon {
			e = horizon
		}
		if e > s {
			r.ws = append(r.ws, faults.Window{Start: s, End: e})
		}
	}
	if len(r.ws) == 0 {
		return r.lh
	}
	r.bfdInt = cfg.BFDIntervalMs / 1e3
	r.kaPhase = rng.Uniform(0, cfg.KeepaliveSec)
	r.bfdPhase = rng.Uniform(0, r.bfdInt)
	r.c.horizon = horizon
	// The warm start is stEstablished at t=0 with a full advertisement
	// history (lastAdv = −MRAI: free to re-advertise immediately after
	// the first recovery).
	r.st = stEstablished
	r.suppressedUntil = math.Inf(-1)
	r.lastAdv = -cfg.MRAISec

	for i := range r.ws {
		r.c.push(event{at: r.ws[i].Start, kind: kPhysDown, win: i})
		r.c.push(event{at: r.ws[i].End, kind: kPhysUp, win: i})
	}
	r.run()

	// Truncate whatever the horizon cut open.
	if r.ctlOpen {
		r.ctlDown = append(r.ctlDown, faults.Window{Start: r.ctlStart, End: horizon})
	}
	if r.epi.open {
		if r.epi.end < r.epi.start {
			r.epi.end = horizon
		}
		r.closeEpisode(horizon)
	}
	for i := range r.supp {
		if r.supp[i].End > horizon {
			r.supp[i].End = horizon
		}
	}
	r.lh.ctlDown = toMinutes(r.ctlDown)
	r.lh.suppressed = toMinutes(r.supp)
	return r.lh
}

// run pops events in (time, seq) order until the heap drains, drops
// timers whose kind has been re-armed or cancelled since, and dispatches
// the rest. Handlers may schedule further events.
func (r *linkReplay) run() {
	for len(r.c.heap) > 0 {
		e := r.c.pop()
		if e.kind < numTimers && e.gen != r.gen[e.kind] {
			continue
		}
		t := e.at
		switch e.kind {
		case kHold:
			r.detect(t, evHoldExpire)
		case kBFD:
			r.detect(t, evLinkDown)
		case kRetry:
			if r.physDownAt(t) {
				r.arm(kRetry, t+r.cfg.ConnectRetrySec)
			} else {
				r.beginHandshake(t)
			}
		case kHandshake:
			// A live handshake advances one message per event:
			// transport up, the peer's OPEN, then its KEEPALIVE.
			switch r.st {
			case stConnect:
				r.step(t, evTCPOpen)
			case stOpenSent:
				r.step(t, evBGPOpen)
			case stOpenConfirm:
				r.step(t, evKeepalive)
				r.established(t)
			}
		case kAdvertise:
			r.lastAdv = t
			if r.ctlOpen {
				r.ctlDown = append(r.ctlDown, faults.Window{Start: r.ctlStart, End: t})
				r.ctlOpen = false
			}
			if r.epi.open {
				r.closeEpisode(t)
			}
		case kPhysDown:
			r.physDown(t)
		case kPhysUp:
			r.physUp(t, e.win)
		}
	}
}

// arm schedules the timer of kind k at instant at, voiding every earlier
// event of that kind.
func (r *linkReplay) arm(k evKind, at float64) {
	r.gen[k]++
	r.c.push(event{at: at, kind: k, gen: r.gen[k]})
}

func (r *linkReplay) step(t float64, e fsmEv) {
	from := r.st
	r.st, _ = fsmStep(r.st, e)
	if r.st != from {
		r.lh.transitions = append(r.lh.transitions, transition{Link: r.link, AtMin: t / 60, From: from, To: r.st, Ev: e})
	}
}

func (r *linkReplay) physDownAt(t float64) bool {
	i := sort.Search(len(r.ws), func(i int) bool { return r.ws[i].End > t })
	return i < len(r.ws) && r.ws[i].Start <= t
}

func (r *linkReplay) openEpisode(t float64) {
	if !r.epi.open {
		r.epi = episode{open: true, start: t, end: t}
	}
}

func (r *linkReplay) closeEpisode(usableSec float64) {
	e := r.epi
	r.epi = episode{}
	r.lh.outages = append(r.lh.outages, outage{
		Link: r.link, Start: e.start / 60, End: e.end / 60,
		Detected: e.detected, Detector: e.detector, DetectAt: e.detectAt / 60,
		UsableAt: usableSec / 60, Flaps: e.flaps, Suppressed: e.suppressed,
	})
}

// flap charges one session drop at t to the RFC 2439 damping state: the
// penalty decays exponentially and each flap adds a fixed figure of
// merit, capped at the ceiling that decays to reuse in exactly the
// max-suppress time.
func (r *linkReplay) flap(t float64) {
	cfg := r.cfg
	r.penalty = r.penalty*math.Exp2(-(t-r.penaltyAt)/cfg.DampHalfLifeSec) + cfg.DampPenalty
	if ceil := cfg.penaltyCeiling(); r.penalty > ceil {
		r.penalty = ceil
	}
	r.penaltyAt = t
	r.lh.flaps++
	if r.epi.open {
		r.epi.flaps++
	}
	if cfg.DisableDamping || r.penalty < cfg.DampSuppress {
		return
	}
	holdFor := min(cfg.DampHalfLifeSec*math.Log2(r.penalty/cfg.DampReuse), dampMaxSuppressSec)
	until := t + holdFor
	if until > r.suppressedUntil {
		if n := len(r.supp); n > 0 && t <= r.supp[n-1].End {
			r.supp[n-1].End = until // still suppressed: extend
		} else {
			r.supp = append(r.supp, faults.Window{Start: t, End: until})
		}
		r.suppressedUntil = until
	}
	if r.epi.open {
		r.epi.suppressed = true
	}
}

// established re-advertises the route once the MRAI permits and damping
// has released.
func (r *linkReplay) established(t float64) {
	at := t
	if v := r.lastAdv + r.cfg.MRAISec; v > at {
		at = v
	}
	if r.suppressedUntil > at {
		at = r.suppressedUntil
	}
	r.arm(kAdvertise, at)
}

// beginHandshake leaves stIdle and schedules the three handshake
// messages, one message delay apart.
func (r *linkReplay) beginHandshake(t float64) {
	r.step(t, evStart) // stIdle → stConnect
	r.gen[kHandshake]++
	d := r.cfg.MsgDelaySec
	for _, at := range [...]float64{t + d, t + 2*d, t + 3*d} {
		r.c.push(event{at: at, kind: kHandshake, gen: r.gen[kHandshake]})
	}
}

// detect drops the established session at t on ev — evHoldExpire for the
// hold timer, evLinkDown for BFD — withdraws the route, charges the flap
// and arms the connect retry.
func (r *linkReplay) detect(t float64, ev fsmEv) {
	r.step(t, ev) // stEstablished → stIdle
	r.holdPending, r.bfdPending = false, false
	r.gen[kHold]++
	r.gen[kBFD]++
	r.openEpisode(t)
	if !r.epi.detected {
		r.epi.detected, r.epi.detector, r.epi.detectAt = true, ev, t
	}
	if !r.ctlOpen {
		r.ctlOpen, r.ctlStart = true, t
	}
	r.gen[kAdvertise]++ // a pending re-advertisement is void
	r.flap(t)
	r.arm(kRetry, t+r.cfg.ConnectRetrySec)
}

func (r *linkReplay) physDown(t float64) {
	r.openEpisode(t)
	switch r.st {
	case stEstablished:
		// Arm the detection timers from the last packet that actually
		// arrived. A timer already pending from an earlier window (the
		// session never heard a packet in the gap) keeps its earlier
		// deadline.
		if !r.holdPending {
			r.holdAt = lastBefore(t, r.kaPhase, r.cfg.KeepaliveSec) + r.cfg.HoldSec
			r.holdPending = true
			r.arm(kHold, r.holdAt)
		}
		if r.cfg.BFD && !r.bfdPending {
			r.bfdAt = lastBefore(t, r.bfdPhase, r.bfdInt) + float64(r.cfg.BFDMultiplier)*r.bfdInt
			r.bfdPending = true
			r.arm(kBFD, r.bfdAt)
		}
	case stConnect, stOpenSent, stOpenConfirm:
		// Transport torn down mid-handshake.
		r.gen[kHandshake]++
		r.step(t, evTCPFail)
		r.arm(kRetry, t+r.cfg.ConnectRetrySec)
	case stIdle:
		// The pending retry will find the link down and re-arm.
	}
}

func (r *linkReplay) physUp(t float64, win int) {
	if r.epi.open && t > r.epi.end {
		r.epi.end = t
	}
	if r.st != stEstablished {
		return // retry/handshake machinery handles recovery
	}
	nextStart := math.Inf(1)
	if win+1 < len(r.ws) {
		nextStart = r.ws[win+1].Start
	}
	// Survival check: a pending timer is cancelled only if the next
	// packet ACTUALLY arrives (while the link is up) before the deadline
	// — a packet landing inside the next fault window is lost and the
	// deadline stands across the gap.
	if r.holdPending {
		if nka := nextFrom(t, r.kaPhase, r.cfg.KeepaliveSec); nka < r.holdAt && nka < nextStart {
			r.holdPending = false
			r.gen[kHold]++
		}
	}
	if r.bfdPending {
		if nrx := nextFrom(t, r.bfdPhase, r.bfdInt); nrx < r.bfdAt && nrx < nextStart {
			r.bfdPending = false
			r.gen[kBFD]++
		}
	}
	if !r.holdPending && !r.bfdPending && r.epi.open && !r.epi.detected {
		// The fault was shorter than every detection window: the session
		// survived, nothing was withdrawn, and the route is usable the
		// instant the link is back.
		r.closeEpisode(t)
	}
}

// lastBefore returns the largest grid instant phase + n·period strictly
// before t. A packet landing exactly at t is lost to the fault starting
// at t (windows are [start, end)).
func lastBefore(t, phase, period float64) float64 {
	at := phase + math.Floor((t-phase)/period)*period
	if at >= t {
		at -= period
	}
	return at
}

// nextFrom returns the smallest grid instant phase + n·period at or
// after t. A packet landing exactly at a recovery instant arrives.
func nextFrom(t, phase, period float64) float64 {
	at := phase + math.Ceil((t-phase)/period)*period
	if at < t {
		at += period
	}
	return at
}

func toMinutes(ws []faults.Window) []faults.Window {
	if len(ws) == 0 {
		return nil
	}
	out := make([]faults.Window, len(ws))
	for i, w := range ws {
		out[i] = faults.Window{Start: w.Start / 60, End: w.End / 60}
	}
	return out
}
