package matbgp

import (
	"fmt"

	"beatbgp/internal/bgp"
	"beatbgp/internal/topology"
)

// Packed column word layout: bits 0..19 next hop, 20..29 path length,
// 30..31 relation class (bgp.Source values: origin=0, customer=1,
// peer=2, provider=3). A zero word (length 0) means unreachable.
const (
	nhBits  = 20
	nhMask  = 1<<nhBits - 1
	lenBits = 10
	lenMask = 1<<lenBits - 1
)

func packWord(rel uint8, ln, nh int32) uint32 {
	return uint32(nh) | uint32(ln)<<nhBits | uint32(rel)<<(nhBits+lenBits)
}

func unpackWord(w uint32) (rel uint8, ln, nh int32) {
	return uint8(w >> (nhBits + lenBits)), int32(w >> nhBits & lenMask), int32(w & nhMask)
}

// Relation classes during propagation, ordered like bgp.Source. relNone
// marks an unrouted AS.
const (
	relOrigin   = uint8(bgp.SrcOrigin)
	relCustomer = uint8(bgp.SrcCustomer)
	relPeer     = uint8(bgp.SrcPeer)
	relProvider = uint8(bgp.SrcProvider)
	relNone     = uint8(0xFF)
)

// cand is one route offer awaiting an adopter's decision. All fields are
// from the adopter's perspective; ln is the candidate's path length.
type cand struct {
	to, nh, link, asn, ln int32
	dist                  float64
}

// candLess orders same-length candidates by the decision process's
// tie-breaks: nearest interconnect, then lowest neighbor ASN, then lowest
// link ID (the reference engine's first-offered-wins order, since a
// pusher offers its parallel links in ascending link order).
func candLess(a, b cand) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.asn != b.asn {
		return a.asn < b.asn
	}
	return a.link < b.link
}

// colState is the per-column propagation scratch: the settled route
// of every AS plus the wave-selection state. A Graph pools them
// (Graph.cols), so a warm column build allocates only its result.
type colState struct {
	rel []uint8
	ln  []int32
	nh  []int32

	// wave-selection scratch
	mark  []int32 // wave stamp of the pending candidate, -1 when none
	best  []cand  // best pending candidate at the stamped wave
	order []int32 // ASes with pending candidates, first-seen order

	// front[l] holds the ASes settled at path length l whose offers
	// are still pending; column's waves drain it in ascending l.
	front [][]int32
}

func newColState(n int) *colState {
	s := &colState{
		rel:  make([]uint8, n),
		ln:   make([]int32, n),
		nh:   make([]int32, n),
		mark: make([]int32, n),
		best: make([]cand, n),
	}
	s.reset()
	return s
}

// reset returns the state to "nothing routed, nothing pending". The
// frontier keeps its levels and their capacity for the next build.
func (s *colState) reset() {
	for i := range s.rel {
		s.rel[i] = relNone
	}
	for i := range s.mark {
		s.mark[i] = -1
	}
	for l := range s.front {
		s.front[l] = s.front[l][:0]
	}
}

// enfront adds ASes settled at path length l to the frontier.
func (s *colState) enfront(l int32, vs ...int32) {
	for int(l) >= len(s.front) {
		s.front = append(s.front, nil)
	}
	s.front[l] = append(s.front[l], vs...)
}

// suppressedLinks returns the links an origin withholds its
// announcement from (selective announcement), nil for any AS that is
// not an origin or announces everywhere.
func suppressedLinks(anns []bgp.Announcement, s *colState, v int32) map[int]bool {
	if s.rel[v] != relOrigin {
		return nil
	}
	for i := range anns {
		if int32(anns[i].Origin) == v {
			return anns[i].SuppressLinks
		}
	}
	return nil
}

// errPathLen is the build failure of a route that would outgrow the
// length field; every path that builds a row reports it with one text.
func errPathLen() error {
	return fmt.Errorf("matbgp: path length beyond %d hops", maxPathLen)
}

// column runs the three valley-free phases for one announcement set and
// returns the packed result, one word per AS. Errors match the reference
// engine's (bgp.ComputeWithout) byte for byte.
func (g *Graph) column(anns []bgp.Announcement, down map[int]bool) ([]uint32, error) {
	if len(anns) == 0 {
		return nil, fmt.Errorf("bgp: no announcements")
	}
	s, _ := g.cols.Get().(*colState)
	if s == nil {
		s = newColState(g.n)
	} else {
		s.reset()
	}
	defer g.cols.Put(s)

	for _, a := range anns {
		if a.Origin < 0 || a.Origin >= g.n {
			return nil, fmt.Errorf("bgp: origin %d out of range", a.Origin)
		}
		o := int32(a.Origin)
		if s.rel[o] != relNone {
			return nil, fmt.Errorf("bgp: duplicate origin %d", a.Origin)
		}
		ln := int32(1 + a.Prepend)
		if ln < 1 || ln > maxPathLen {
			return nil, fmt.Errorf("matbgp: origin %d prepend %d exceeds the %d-hop path capacity",
				a.Origin, a.Prepend, maxPathLen)
		}
		s.rel[o], s.ln[o], s.nh[o] = relOrigin, ln, o
	}

	// Phase 1 — customer routes flow upward, settling by path length.
	for _, a := range anns {
		o := int32(a.Origin)
		s.enfront(s.ln[o], o)
	}
	if err := g.settleFront(s, anns, down, relCustomer, uint8(topology.ViewProvider)); err != nil {
		return nil, err
	}

	// Phase 2 — peer routes travel exactly one peer hop: every offer
	// from the customer-routed (and origin) ASes is folded in as it is
	// found, then each unrouted AS takes its best by (length, distance,
	// ASN, link). Nothing settles until every offer is in.
	s.order = s.order[:0]
	for v := int32(0); v < int32(g.n); v++ {
		if s.rel[v] > relCustomer {
			continue
		}
		nl := s.ln[v] + 1
		if nl > maxPathLen {
			return nil, errPathLen()
		}
		sup := suppressedLinks(anns, s, v)
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			if g.adjView[i] != uint8(topology.ViewPeer) {
				continue
			}
			to, link := g.adjOther[i], g.adjLink[i]
			if s.rel[to] != relNone || down != nil && down[int(link)] || sup != nil && sup[int(link)] {
				continue // customer routes and origins always beat peer offers
			}
			c := cand{to: to, nh: v, link: link, asn: g.asn[v], ln: nl, dist: g.adjDistIn[i]}
			if s.mark[to] != -2 {
				s.mark[to] = -2
				s.best[to] = c
				s.order = append(s.order, to)
				continue
			}
			b := &s.best[to]
			if c.ln != b.ln {
				if c.ln < b.ln {
					*b = c
				}
			} else if candLess(c, *b) {
				*b = c
			}
		}
	}
	for _, to := range s.order {
		c := &s.best[to]
		s.rel[to], s.ln[to], s.nh[to] = relPeer, c.ln, c.nh
	}

	// Phase 3 — provider routes flow downward: every routed AS exports to
	// its customers, and newly routed customers keep pushing down.
	for v := int32(0); v < int32(g.n); v++ {
		if s.rel[v] != relNone {
			s.enfront(s.ln[v], v)
		}
	}
	if err := g.settleFront(s, anns, down, relProvider, uint8(topology.ViewCustomer)); err != nil {
		return nil, err
	}

	col := make([]uint32, g.n)
	for v := 0; v < g.n; v++ {
		if s.rel[v] == relNone {
			continue
		}
		col[v] = packWord(s.rel[v], s.ln[v], s.nh[v])
	}
	return col, nil
}

// settleFront drains the frontier in ascending path length. The ASes
// settled at length l offer their routes over their live adjacencies
// of the given view; each unrouted receiver folds its offers into its
// best candidate as they are found (candLess is a total order over one
// receiver's offers, since no two share a link, so the scan order never
// changes the pick); then the wave's receivers settle at l+1 with class
// rel and join the frontier. Every adopter thus sees all of its
// shortest-length offers before deciding, reproducing the reference
// fixpoint. A pusher at maxPathLen fails the build: its offers would
// not fit the length field.
func (g *Graph) settleFront(s *colState, anns []bgp.Announcement, down map[int]bool, rel, view uint8) error {
	for l := 0; l < len(s.front); l++ {
		pushers := s.front[l]
		if len(pushers) == 0 {
			continue
		}
		nl := int32(l) + 1
		if nl > maxPathLen {
			return errPathLen()
		}
		s.order = s.order[:0]
		for _, v := range pushers {
			sup := suppressedLinks(anns, s, v)
			asn := g.asn[v]
			for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
				if g.adjView[i] != view {
					continue
				}
				to, link := g.adjOther[i], g.adjLink[i]
				if s.rel[to] != relNone || down != nil && down[int(link)] || sup != nil && sup[int(link)] {
					continue // settled at a shorter length or better class
				}
				c := cand{to: to, nh: v, link: link, asn: asn, ln: nl, dist: g.adjDistIn[i]}
				if s.mark[to] != nl {
					s.mark[to] = nl
					s.best[to] = c
					s.order = append(s.order, to)
				} else if candLess(c, s.best[to]) {
					s.best[to] = c
				}
			}
		}
		s.front[l] = pushers[:0]
		for _, to := range s.order {
			c := &s.best[to]
			s.rel[to], s.ln[to], s.nh[to] = rel, c.ln, c.nh
		}
		s.enfront(nl, s.order...)
	}
	return nil
}
