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

// Detector names recorded on detected outages.
const (
	detectorHold = "hold"
	detectorBFD  = "bfd"
)

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
	Detector string  // "hold" or "bfd" — whichever fired first
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
	start, end float64
	detected   bool
	detector   string
	detectAt   float64
	flaps      int
	suppressed bool
}

// replayLink runs one link's discrete-event loop. windows are the merged
// physical outage spans in MINUTES; everything inside runs in SECONDS
// (the natural unit of the timers) and converts at the boundary.
func replayLink(link int, windows []faults.Window, cfg Config, rng *xrand.Rand, horizonMin float64) *linkHistory {
	horizon := horizonMin * 60
	var ws []faults.Window
	for _, w := range windows {
		s, e := w.Start*60, w.End*60
		if s >= horizon {
			break
		}
		if e > horizon {
			e = horizon
		}
		if e > s {
			ws = append(ws, faults.Window{Start: s, End: e})
		}
	}
	lh := &linkHistory{}
	if len(ws) == 0 {
		return lh
	}

	var (
		ka        = cfg.KeepaliveSec
		hold      = cfg.HoldSec
		bfdInt    = cfg.BFDIntervalMs / 1e3
		bfdDetect = float64(cfg.BFDMultiplier) * bfdInt
		// The peer's keepalive (and BFD packet) arrivals sit on a
		// per-link phase grid: phase + n·period. The phase is the only
		// randomness in the replay.
		kaPhase  = rng.Uniform(0, ka)
		bfdPhase = rng.Uniform(0, bfdInt)
	)

	c := newClock(horizon)

	// Mutable session state. The warm start is stEstablished at t=0 with a
	// full advertisement history (lastAdv = −MRAI: free to re-advertise
	// immediately after the first recovery).
	var (
		st    = stEstablished
		bfdSt = bfdUp

		holdGen, bfdGen, retryGen, hsGen, advGen uint64
		holdPending, bfdPending                  bool
		holdAt, bfdAt                            float64

		penalty         float64
		penaltyAt       float64
		suppressedUntil = math.Inf(-1)
		lastAdv         = -cfg.MRAISec

		ctlOpen  bool
		ctlStart float64
		ctlDown  []faults.Window // seconds
		supp     []faults.Window // seconds

		epi *episode
	)

	step := func(t float64, e fsmEv) {
		from := st
		st, _ = fsmStep(st, e)
		if st != from {
			lh.transitions = append(lh.transitions, transition{Link: link, AtMin: t / 60, From: from, To: st, Ev: e})
		}
	}
	physDownAt := func(t float64) bool {
		i := sort.Search(len(ws), func(i int) bool { return ws[i].End > t })
		return i < len(ws) && ws[i].Start <= t
	}
	closeEpisode := func(usableSec float64) {
		e := epi
		epi = nil
		lh.outages = append(lh.outages, outage{
			Link: link, Start: e.start / 60, End: e.end / 60,
			Detected: e.detected, Detector: e.detector, DetectAt: e.detectAt / 60,
			UsableAt: usableSec / 60, Flaps: e.flaps, Suppressed: e.suppressed,
		})
	}
	withdraw := func(t float64) {
		if !ctlOpen {
			ctlOpen, ctlStart = true, t
		}
		advGen++ // a pending re-advertisement is void
	}
	flap := func(t float64) {
		// RFC 2439 damping: penalty decays exponentially and each flap
		// adds a fixed figure of merit, capped at the ceiling that
		// decays to reuse in exactly the max-suppress time.
		penalty = penalty*math.Exp2(-(t-penaltyAt)/cfg.DampHalfLifeSec) + cfg.DampPenalty
		if ceil := cfg.penaltyCeiling(); penalty > ceil {
			penalty = ceil
		}
		penaltyAt = t
		lh.flaps++
		if epi != nil {
			epi.flaps++
		}
		if cfg.DisableDamping || penalty < cfg.DampSuppress {
			return
		}
		holdFor := cfg.DampHalfLifeSec * math.Log2(penalty/cfg.DampReuse)
		if holdFor > cfg.DampMaxSuppressSec {
			holdFor = cfg.DampMaxSuppressSec
		}
		until := t + holdFor
		if until > suppressedUntil {
			if n := len(supp); n > 0 && t <= supp[n-1].End {
				supp[n-1].End = until // still suppressed: extend
			} else {
				supp = append(supp, faults.Window{Start: t, End: until})
			}
			suppressedUntil = until
		}
		if epi != nil {
			epi.suppressed = true
		}
	}

	var scheduleRetry func(at float64)
	var beginHandshake func(t float64)

	onEstablished := func(t float64) {
		if cfg.BFD {
			// The BFD session bootstraps alongside: Down → Init on the
			// peer's Down packet, Up on its Up packet.
			bfdSt, _ = bfdStep(bfdSt, bfdRecvDown)
			bfdSt, _ = bfdStep(bfdSt, bfdRecvUp)
		}
		// Re-advertise once the MRAI permits and damping has released.
		at := t
		if v := lastAdv + cfg.MRAISec; v > at {
			at = v
		}
		if suppressedUntil > at {
			at = suppressedUntil
		}
		advGen++
		gen := advGen
		c.schedule(at, func(now float64) {
			if gen != advGen || st != stEstablished {
				return
			}
			lastAdv = now
			if ctlOpen {
				ctlDown = append(ctlDown, faults.Window{Start: ctlStart, End: now})
				ctlOpen = false
			}
			if epi != nil {
				closeEpisode(now)
			}
		})
	}

	beginHandshake = func(t float64) {
		step(t, evStart) // stIdle → stConnect
		hsGen++
		gen := hsGen
		d := cfg.MsgDelaySec
		c.schedule(t+d, func(now float64) {
			if gen == hsGen {
				step(now, evTCPOpen) // stConnect → stOpenSent
			}
		})
		c.schedule(t+2*d, func(now float64) {
			if gen == hsGen {
				step(now, evBGPOpen) // stOpenSent → stOpenConfirm
			}
		})
		c.schedule(t+3*d, func(now float64) {
			if gen != hsGen {
				return
			}
			step(now, evKeepalive) // stOpenConfirm → stEstablished
			onEstablished(now)
		})
	}

	scheduleRetry = func(at float64) {
		retryGen++
		gen := retryGen
		c.schedule(at, func(now float64) {
			if gen != retryGen || st != stIdle {
				return
			}
			if physDownAt(now) {
				scheduleRetry(now + cfg.ConnectRetrySec)
				return
			}
			beginHandshake(now)
		})
	}

	detect := func(t float64, detector string) {
		ev := evHoldExpire
		if detector == detectorBFD {
			bfdSt, _ = bfdStep(bfdSt, bfdTimeout)
			ev = evLinkDown
		} else if cfg.BFD {
			bfdSt = bfdDown // hold fired first; the BFD session tears down with the BGP one
		}
		step(t, ev) // stEstablished → stIdle
		holdPending, bfdPending = false, false
		holdGen++
		bfdGen++
		if epi == nil {
			epi = &episode{start: t, end: t}
		}
		if !epi.detected {
			epi.detected, epi.detector, epi.detectAt = true, detector, t
		}
		withdraw(t)
		flap(t)
		scheduleRetry(t + cfg.ConnectRetrySec)
	}

	onPhysDown := func(i int) func(float64) {
		return func(t float64) {
			if epi == nil {
				epi = &episode{start: t, end: t}
			}
			switch st {
			case stEstablished:
				// Arm the detection timers from the last packet that
				// actually arrived. A timer already pending from an
				// earlier window (the session never heard a packet in
				// the gap) keeps its earlier deadline.
				if !holdPending {
					holdAt = lastBefore(t, kaPhase, ka) + hold
					holdPending = true
					holdGen++
					gen := holdGen
					c.schedule(holdAt, func(now float64) {
						if gen != holdGen || !holdPending {
							return
						}
						holdPending = false
						detect(now, detectorHold)
					})
				}
				if cfg.BFD && !bfdPending {
					bfdAt = lastBefore(t, bfdPhase, bfdInt) + bfdDetect
					bfdPending = true
					bfdGen++
					gen := bfdGen
					c.schedule(bfdAt, func(now float64) {
						if gen != bfdGen || !bfdPending {
							return
						}
						bfdPending = false
						detect(now, detectorBFD)
					})
				}
			case stConnect, stOpenSent, stOpenConfirm:
				// Transport torn down mid-handshake.
				hsGen++
				step(t, evTCPFail)
				scheduleRetry(t + cfg.ConnectRetrySec)
			case stIdle:
				// The pending retry will find the link down and re-arm.
			}
		}
	}

	onPhysUp := func(i int) func(float64) {
		nextStart := math.Inf(1)
		if i+1 < len(ws) {
			nextStart = ws[i+1].Start
		}
		return func(t float64) {
			if epi != nil && t > epi.end {
				epi.end = t
			}
			if st != stEstablished {
				return // retry/handshake machinery handles recovery
			}
			// Survival check: a pending timer is cancelled only if the
			// next packet ACTUALLY arrives (while the link is up) before
			// the deadline — a packet landing inside the next fault
			// window is lost and the deadline stands across the gap.
			if holdPending {
				if nka := nextFrom(t, kaPhase, ka); nka < holdAt && nka < nextStart {
					holdPending = false
					holdGen++
				}
			}
			if bfdPending {
				if nrx := nextFrom(t, bfdPhase, bfdInt); nrx < bfdAt && nrx < nextStart {
					bfdPending = false
					bfdGen++
				}
			}
			if !holdPending && !bfdPending && epi != nil && !epi.detected {
				// The fault was shorter than every detection window: the
				// session survived, nothing was withdrawn, and the route
				// is usable the instant the link is back.
				closeEpisode(t)
			}
		}
	}

	for i := range ws {
		c.schedule(ws[i].Start, onPhysDown(i))
		c.schedule(ws[i].End, onPhysUp(i))
	}
	c.run()

	// Truncate whatever the horizon cut open.
	if ctlOpen {
		ctlDown = append(ctlDown, faults.Window{Start: ctlStart, End: horizon})
	}
	if epi != nil {
		if epi.end < epi.start {
			epi.end = horizon
		}
		closeEpisode(horizon)
	}
	for i := range supp {
		if supp[i].End > horizon {
			supp[i].End = horizon
		}
	}
	lh.ctlDown = toMinutes(ctlDown)
	lh.suppressed = toMinutes(supp)
	return lh
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
