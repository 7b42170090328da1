// Package delta is the topology-change vocabulary of the incremental
// route pipeline: a Delta names the interdomain links that went down and
// came up between two epochs, an Event is one timed link edge, and a
// Sequence is a compiled, time-ordered epoch chain carrying the
// cumulative down set at every instant.
//
// The package is deliberately dependency-free plain data: the session
// layer (internal/session) compiles its replayed windows into the one
// Sequence a world has, the batch route engine (internal/matbgp)
// repairs packed columns across Deltas instead of rebuilding all-pairs,
// netsim reads injected link state from it, and cdn keys per-epoch
// caches on Sequence indices. The repair-vs-rebuild differential
// contract lives with the engines; this package only guarantees that a
// Sequence is a faithful, normalized encoding of its input events.
package delta

import (
	"fmt"
	"sort"
)

// Delta is the set of link-state changes between two adjacent epochs:
// Down lists links that failed at the boundary, Up lists links that
// recovered. Both slices are sorted ascending and disjoint; a normalized
// Delta never names a link twice.
type Delta struct {
	Down []int
	Up   []int
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool { return len(d.Down) == 0 && len(d.Up) == 0 }

// Invert returns the delta that undoes d: downs become ups and vice
// versa. Applying d then d.Invert() restores the original down set.
func (d Delta) Invert() Delta {
	return Delta{Down: append([]int(nil), d.Up...), Up: append([]int(nil), d.Down...)}
}

// Validate checks that every link ID in the delta indexes a world with
// nLinks links and that no link is both downed and upped in one delta.
// Boundary code (the serving layer's what-if endpoint) uses it to
// reject malformed deltas before they reach a repair chain, which
// would otherwise silently ignore unknown links.
func (d Delta) Validate(nLinks int) error {
	seen := make(map[int]bool, len(d.Down))
	for _, l := range d.Down {
		if l < 0 || l >= nLinks {
			return fmt.Errorf("delta: down link %d out of range [0,%d)", l, nLinks)
		}
		seen[l] = true
	}
	for _, l := range d.Up {
		if l < 0 || l >= nLinks {
			return fmt.Errorf("delta: up link %d out of range [0,%d)", l, nLinks)
		}
		if seen[l] {
			return fmt.Errorf("delta: link %d both down and up in one delta", l)
		}
	}
	return nil
}

func (d Delta) String() string {
	return fmt.Sprintf("delta{down:%v up:%v}", d.Down, d.Up)
}

// Normalize sorts and de-duplicates both sides and drops links named on
// both (a down and an up at the same instant cancel). It returns an
// error when the same link appears twice on one side with conflicting
// multiplicity semantics — which cannot happen from window compilation,
// so duplicates within a side simply collapse.
func (d Delta) Normalize() Delta {
	down := dedupeSorted(d.Down)
	up := dedupeSorted(d.Up)
	// Cancel links present on both sides.
	both := make(map[int]bool)
	i, j := 0, 0
	for i < len(down) && j < len(up) {
		switch {
		case down[i] < up[j]:
			i++
		case down[i] > up[j]:
			j++
		default:
			both[down[i]] = true
			i++
			j++
		}
	}
	if len(both) == 0 {
		return Delta{Down: down, Up: up}
	}
	return Delta{Down: without(down, both), Up: without(up, both)}
}

func dedupeSorted(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	out := append([]int(nil), xs...)
	sort.Ints(out)
	w := 1
	for _, x := range out[1:] {
		if x != out[w-1] {
			out[w] = x
			w++
		}
	}
	return out[:w]
}

func without(xs []int, drop map[int]bool) []int {
	var out []int
	for _, x := range xs {
		if !drop[x] {
			out = append(out, x)
		}
	}
	return out
}

// Diff returns the delta that transforms down set a into down set b:
// links in b but not a go Down, links in a but not b come Up. Both maps
// treat absent and false identically.
func Diff(a, b map[int]bool) Delta {
	var d Delta
	for l, v := range b {
		if v && !a[l] {
			d.Down = append(d.Down, l)
		}
	}
	for l, v := range a {
		if v && !b[l] {
			d.Up = append(d.Up, l)
		}
	}
	sort.Ints(d.Down)
	sort.Ints(d.Up)
	return d
}

// Apply folds the delta into the down set in place (allocating when the
// map is nil) and returns it. Nil stays nil when the delta is empty.
func Apply(down map[int]bool, d Delta) map[int]bool {
	if d.Empty() {
		return down
	}
	if down == nil {
		down = make(map[int]bool, len(d.Down))
	}
	for _, l := range d.Down {
		down[l] = true
	}
	for _, l := range d.Up {
		delete(down, l)
	}
	return down
}

// Event is one timed link-state edge: at minute At, link Link goes down
// (Down true) or comes back up.
type Event struct {
	At   float64
	Link int
	Down bool
}

// Epoch is one constant-topology span of a Sequence: it begins at Start
// with Delta applied to the previous epoch's state, and Down is the
// cumulative failed-link set in effect throughout the span (sorted
// ascending; shared storage — callers must not mutate).
type Epoch struct {
	Start float64
	Delta Delta
	Down  []int
}

// DownSet returns the epoch's failed links as a freshly allocated map in
// the shape bgp.ComputeWithout consumes; nil when nothing is down.
func (e Epoch) DownSet() map[int]bool {
	if len(e.Down) == 0 {
		return nil
	}
	m := make(map[int]bool, len(e.Down))
	for _, l := range e.Down {
		m[l] = true
	}
	return m
}

// Sequence is a compiled, time-ordered epoch chain over [Start, End).
// Epoch 0 starts at Start carrying the initial state as its Delta (from
// an empty down set); every later epoch starts at a boundary where the
// down set actually changed. A Sequence is immutable after Compile and
// safe for concurrent reads.
type Sequence struct {
	epochs     []Epoch
	start, end float64
}

// Start returns the sequence's first covered minute.
func (s *Sequence) Start() float64 { return s.start }

// End returns the sequence's horizon (exclusive).
func (s *Sequence) End() float64 { return s.end }

// Len returns the number of epochs. A sequence over a quiet span has
// exactly one epoch (possibly with an empty down set).
func (s *Sequence) Len() int { return len(s.epochs) }

// Epoch returns the i-th epoch.
func (s *Sequence) Epoch(i int) Epoch { return s.epochs[i] }

// At returns the index of the epoch in effect at minute t, clamping
// before Start to epoch 0 and at or beyond End to the last epoch.
func (s *Sequence) At(t float64) int {
	// First epoch with Start > t, minus one.
	i := sort.Search(len(s.epochs), func(i int) bool { return s.epochs[i].Start > t })
	if i == 0 {
		return 0
	}
	return i - 1
}

// DownAt returns the cumulative down set in effect at minute t (shared
// storage — callers must not mutate).
func (s *Sequence) DownAt(t float64) []int { return s.epochs[s.At(t)].Down }

// LinkDownAt reports whether the link is failed at minute t, by binary
// search over the epoch's sorted down set.
func (s *Sequence) LinkDownAt(link int, t float64) bool {
	down := s.DownAt(t)
	i := sort.SearchInts(down, link)
	return i < len(down) && down[i] == link
}

// Compile builds a Sequence over [t0, t1) from an event stream. Events
// outside [t0, t1) are ignored except that the initial epoch's state is
// the net effect of every event at or before t0 (so a window opened
// before the span is already down at Start). Same-instant events on
// distinct links merge into one boundary; a down and an up for the same
// link at the same instant cancel (a zero-length window never existed).
// Events need not be sorted. Compile returns an error for a NaN or
// reversed span.
func Compile(events []Event, t0, t1 float64) (*Sequence, error) {
	if !(t0 <= t1) { // also rejects NaN
		return nil, fmt.Errorf("delta: span [%v, %v) is not ordered", t0, t1)
	}
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		return evs[i].Link < evs[j].Link
	})
	seq := &Sequence{start: t0, end: t1}
	state := make(map[int]bool)
	i := 0
	for ; i < len(evs) && evs[i].At <= t0; i++ {
		if evs[i].Down {
			state[evs[i].Link] = true
		} else {
			delete(state, evs[i].Link)
		}
	}
	prev := map[int]bool{}
	push := func(at float64) {
		d := Diff(prev, state).Normalize()
		if len(seq.epochs) > 0 && d.Empty() {
			return
		}
		seq.epochs = append(seq.epochs, Epoch{Start: at, Delta: d, Down: sortedKeys(state)})
		prev = cloneSet(state)
	}
	push(t0)
	for i < len(evs) && evs[i].At < t1 {
		at := evs[i].At
		for ; i < len(evs) && evs[i].At == at; i++ {
			if evs[i].Down {
				state[evs[i].Link] = true
			} else {
				delete(state, evs[i].Link)
			}
		}
		push(at)
	}
	return seq, nil
}

func sortedKeys(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for l, v := range m {
		if v {
			out = append(out, l)
		}
	}
	sort.Ints(out)
	return out
}

func cloneSet(m map[int]bool) map[int]bool {
	out := make(map[int]bool, len(m))
	for l, v := range m {
		if v {
			out[l] = true
		}
	}
	return out
}
