package session

import (
	"sort"

	"beatbgp/internal/delta"
	"beatbgp/internal/faults"
)

// Links returns the replayed link IDs, ascending.
func (h *History) Links() []int { return append([]int(nil), h.links...) }

// Flaps returns how many times the link's session dropped.
func (h *History) Flaps(link int) int {
	lh := h.perLink[link]
	if lh == nil {
		return 0
	}
	return lh.flaps
}

// outageAt returns the outage episode covering minute t on the link: an
// episode spans [Start, max(End, UsableAt)).
func (h *History) outageAt(link int, t float64) (outage, bool) {
	lh := h.perLink[link]
	if lh == nil {
		return outage{}, false
	}
	for _, o := range lh.outages {
		end := o.End
		if o.UsableAt > end {
			end = o.UsableAt
		}
		if o.Start <= t && t < end {
			return o, true
		}
	}
	return outage{}, false
}

// UsableAt returns the minute the link's route is usable again after the
// outage episode covering minute t. ok is false when no episode covers t.
func (h *History) UsableAt(link int, t float64) (float64, bool) {
	o, ok := h.outageAt(link, t)
	return o.UsableAt, ok
}

// DetectionLatencyMin returns how long after minute t (a fault onset
// inside some episode) the session layer noticed: DetectAt − t, clamped
// at zero for a fault joining an already-detected episode. ok is false
// when no episode covers t or the episode was never detected — the
// fault was invisible to every timer.
func (h *History) DetectionLatencyMin(link int, t float64) (float64, bool) {
	o, found := h.outageAt(link, t)
	if !found || !o.Detected {
		return 0, false
	}
	lat := o.DetectAt - t
	if lat < 0 {
		lat = 0
	}
	return lat, true
}

// CtlDown returns the link's control-plane-down spans in minutes: route
// withdrawn at detection, usable again at re-advertisement.
func (h *History) CtlDown(link int) []faults.Window {
	lh := h.perLink[link]
	if lh == nil {
		return nil
	}
	return append([]faults.Window(nil), lh.ctlDown...)
}

// Suppressed returns the link's damping suppression spans in minutes.
func (h *History) Suppressed(link int) []faults.Window {
	lh := h.perLink[link]
	if lh == nil {
		return nil
	}
	return append([]faults.Window(nil), lh.suppressed...)
}

// PhysDownMinutes returns the link's total physical downtime within the
// horizon.
func (h *History) PhysDownMinutes(link int) float64 {
	return measure(h.physWindows(link))
}

// UnusableMinutes returns the link's total unusable time within the
// horizon: the measure of the union of physical downtime and
// control-plane downtime. The gap between this and PhysDownMinutes is
// pure session-layer tax (detection tails, handshakes, MRAI, damping),
// minus whatever short faults the timers never saw.
func (h *History) UnusableMinutes(link int) float64 {
	lh := h.perLink[link]
	if lh == nil {
		return measure(h.physWindows(link))
	}
	return measure(faults.MergeWindows(append(h.physWindows(link), lh.ctlDown...)))
}

// SuppressedWhileUpMinutes returns the time the link's route was
// damping-suppressed while the link was physically healthy — emergent
// unreachability the physical fault schedule cannot explain.
func (h *History) SuppressedWhileUpMinutes(link int) float64 {
	lh := h.perLink[link]
	if lh == nil {
		return 0
	}
	return measure(lh.suppressed) - overlap(lh.suppressed, h.physWindows(link))
}

// Events returns the replayed world's ordered link-usability stream: one
// Down edge where a link stops carrying routes and one Up edge where it
// resumes, for every link the timeline faults or the replay covers. A
// link is unusable while it is physically down or its route is
// withdrawn/suppressed by the session layer, so each link's edges are
// the boundaries of the merged union of its physical and control-plane
// windows (a session tail fuses with the physical outage it trails into
// one continuous down span). Edges are ordered by time, then link.
func (h *History) Events() []delta.Event {
	links := h.tl.FaultedLinks()
	for _, l := range h.links {
		links = append(links, l)
	}
	sort.Ints(links)
	var out []delta.Event
	prev := -1
	for _, link := range links {
		if link == prev {
			continue // replayed and faulted
		}
		prev = link
		ws := h.tl.DownWindows(link)
		if lh := h.perLink[link]; lh != nil && len(lh.ctlDown) > 0 {
			ws = faults.MergeWindows(append(ws, lh.ctlDown...))
		}
		for _, w := range ws {
			out = append(out, delta.Event{At: w.Start, Link: link, Down: true})
			out = append(out, delta.Event{At: w.End, Link: link, Down: false})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Link < out[j].Link
	})
	return out
}

// Deltas compiles the usability stream over [t0, t1) into an epoch
// sequence: one epoch per instant the usable-link set changes, each
// carrying the delta from its predecessor. The sequence is the one
// answer to "is link l down at minute t" — for t in [t0, t1),
// seq.LinkDownAt(l, t) holds exactly when t lies in one of the link's
// DownWindows or CtlDown spans — so route pipelines repair across its
// epochs and netsim reads its link state from it.
func (h *History) Deltas(t0, t1 float64) (*delta.Sequence, error) {
	return delta.Compile(h.Events(), t0, t1)
}

// physWindows returns the link's merged physical windows clamped to the
// horizon, in minutes.
func (h *History) physWindows(link int) []faults.Window {
	var out []faults.Window
	for _, w := range h.tl.DownWindows(link) {
		if w.Start >= h.horizonMin {
			break
		}
		if w.End > h.horizonMin {
			w.End = h.horizonMin
		}
		out = append(out, w)
	}
	return out
}

// measure returns the total length of a set of disjoint sorted windows.
func measure(ws []faults.Window) float64 {
	total := 0.0
	for _, w := range ws {
		total += w.End - w.Start
	}
	return total
}

// overlap returns the measure of the intersection of two disjoint
// sorted window sets.
func overlap(a, b []faults.Window) float64 {
	total := 0.0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].Start
		if b[j].Start > lo {
			lo = b[j].Start
		}
		hi := a[i].End
		if b[j].End < hi {
			hi = b[j].End
		}
		if hi > lo {
			total += hi - lo
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return total
}
