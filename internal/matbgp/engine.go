package matbgp

import (
	"fmt"
	"sync"

	"beatbgp/internal/bgp"
	"beatbgp/internal/topology"
)

// Engine is the batch bgp.Computer: it lowers the topology into a Graph
// once, computes packed columns by frontier propagation, and caches one
// column per stub equivalence class so repeated single-origin queries —
// the all-pairs and oracle workloads — reuse each other's work.
type Engine struct {
	g    *Graph
	topo *topology.Topo

	mu sync.Mutex
	// classCols caches the packed column of each stub class's
	// representative under a plain announcement (single origin, no
	// prepend, no suppression, no failed links). Columns are immutable
	// once installed, and the first installed pointer is the one every
	// caller sees (pointer stability for downstream memos).
	classCols map[int32][]uint32
	// inflight holds one future per class whose column is being
	// computed right now, so duplicate concurrent requests share a
	// single propagation instead of racing to do the work twice. mu is
	// never held during the propagation itself.
	inflight map[int32]*colFlight
}

// colFlight is a materializing class column: the computing goroutine
// closes done, waiters share the result. A failed compute is not
// cached — the flight is removed before done closes, so later requests
// retry.
type colFlight struct {
	done chan struct{}
	col  []uint32
	err  error
}

// NewEngine lowers the topology and returns the batch engine.
func NewEngine(t *topology.Topo) (*Engine, error) {
	g, err := FromTopo(t)
	if err != nil {
		return nil, err
	}
	return &Engine{g: g, topo: t,
		classCols: make(map[int32][]uint32),
		inflight:  make(map[int32]*colFlight)}, nil
}

// Graph returns the lowered topology, for tests and benchmarks.
func (e *Engine) Graph() *Graph { return e.g }

// Compute implements bgp.Computer.
func (e *Engine) Compute(anns []bgp.Announcement) (*bgp.RIB, error) {
	return e.ComputeWithout(anns, nil)
}

// ComputeWithout implements bgp.Computer. The result is bit-identical to
// the reference engine's: same best routes, paths, links, and RIB query
// behavior (OffersTo, BestFrom) — the differential tests are the contract.
func (e *Engine) ComputeWithout(anns []bgp.Announcement, down map[int]bool) (*bgp.RIB, error) {
	col, err := e.columnFor(anns, down)
	if err != nil {
		return nil, err
	}
	suppressed := suppressions(anns)
	hops, err := e.g.materialize(col, suppressed, down)
	if err != nil {
		return nil, err
	}
	return bgp.NewRIB(e.topo, hops, down, suppressed), nil
}

// suppressions maps each origin that withholds its announcement from
// some links (selective announcement) to those links; nil when none do.
func suppressions(anns []bgp.Announcement) map[int]map[int]bool {
	var out map[int]map[int]bool
	for _, a := range anns {
		if len(a.SuppressLinks) > 0 {
			if out == nil {
				out = make(map[int]map[int]bool)
			}
			out[a.Origin] = a.SuppressLinks
		}
	}
	return out
}

// columnFor routes plain stub-origin queries through the class cache and
// everything else (multi-origin anycast, grooming knobs, failed links)
// through a direct propagation.
func (e *Engine) columnFor(anns []bgp.Announcement, down map[int]bool) ([]uint32, error) {
	g := e.g
	if down == nil && len(anns) == 1 {
		a := anns[0]
		if a.Prepend == 0 && len(a.SuppressLinks) == 0 &&
			a.Origin >= 0 && a.Origin < g.n && g.classOf[a.Origin] >= 0 {
			return e.classColumn(g.classOf[a.Origin], int32(a.Origin))
		}
	}
	return g.column(anns, down)
}

// classColumn returns the plain-announcement column for a stub origin,
// propagating only once per equivalence class. For a non-representative
// member the cached column is exact except for three spots the class
// signature abstracts away, each fixed up here: the member's own row
// (it is the origin now), the representative's row (its geographic
// tie-breaks are its own, so its next hop is re-decided from its
// neighbors' settled routes), and next-hop labels (routes that pointed
// at the representative point at the member). Link IDs at the origin's
// direct adopters also differ, but links are not in the packed word at
// all — materialization reconstructs them per member.
func (e *Engine) classColumn(class, origin int32) ([]uint32, error) {
	g := e.g
	rep := g.classes[class][0]
	col, err := e.repColumn(class, rep)
	if err != nil {
		return nil, err
	}
	if origin == rep {
		return col, nil
	}
	out := make([]uint32, len(col))
	for v, w := range col {
		if rel, ln, nh := unpackWord(w); w != 0 && nh == rep {
			w = packWord(rel, ln, origin)
		}
		out[v] = w
	}
	out[origin] = packWord(relOrigin, 1, origin)
	repRow, err := g.rowForStub(rep, out)
	if err != nil {
		return nil, err
	}
	out[rep] = repRow
	return out, nil
}

// repColumn returns the cached column of a class representative,
// propagating on a miss with the engine lock released. Duplicate
// concurrent misses for the same class coalesce onto one in-flight
// compute; the computing goroutine installs the column, so the first
// installed pointer is the one every present and future caller shares.
func (e *Engine) repColumn(class, rep int32) ([]uint32, error) {
	e.mu.Lock()
	if col, ok := e.classCols[class]; ok {
		e.mu.Unlock()
		return col, nil
	}
	if fl, ok := e.inflight[class]; ok {
		e.mu.Unlock()
		<-fl.done
		return fl.col, fl.err
	}
	fl := &colFlight{done: make(chan struct{})}
	e.inflight[class] = fl
	e.mu.Unlock()

	col, err := e.g.column([]bgp.Announcement{{Origin: int(rep)}}, nil)
	e.mu.Lock()
	delete(e.inflight, class)
	if err == nil {
		e.classCols[class] = col
	}
	e.mu.Unlock()
	fl.col, fl.err = col, err
	close(fl.done)
	return col, err
}

// rowForStub decides a stub's best route against an already-settled
// column in one pass over its neighbors: providers export everything,
// peers export customer-cone routes, and the stub (not an origin here)
// picks by relation class, then length, then its own geographic
// tie-break, neighbor ASN, and link — the full decision process.
func (g *Graph) rowForStub(v int32, col []uint32) (uint32, error) {
	var b cand
	bSrc := relNone
	for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
		u := g.adjOther[i]
		if col[u] == 0 {
			continue
		}
		rel, ln, _ := unpackWord(col[u])
		var src uint8
		switch g.adjView[i] {
		case uint8(topology.ViewProvider):
			src = relProvider
		case uint8(topology.ViewPeer):
			if rel > relCustomer {
				continue
			}
			src = relPeer
		default: // a customer adjacency would make v a non-stub
			continue
		}
		c := cand{to: v, nh: u, link: g.adjLink[i], asn: g.asn[u], ln: ln + 1, dist: g.adjDist[i]}
		switch {
		case bSrc == relNone:
		case src != bSrc:
			if src > bSrc {
				continue
			}
		case c.ln != b.ln:
			if c.ln > b.ln {
				continue
			}
		case !candLess(c, b):
			continue
		}
		b, bSrc = c, src
	}
	if bSrc == relNone {
		return 0, nil
	}
	if b.ln > maxPathLen {
		return 0, errPathLen()
	}
	return packWord(bSrc, b.ln, b.nh), nil
}

// materialize decompresses a packed column into the RIB's hop table in
// one pass: each AS's class, length and next hop come straight from its
// word, so a RIB's paths and links equal the reference engine's. The
// learned link is not stored in the word; it is provably the (distance,
// link ID) minimum among the AS's live adjacencies toward its next hop
// under the settled relation view, which is exactly what propagation
// chose.
func (g *Graph) materialize(col []uint32, suppress map[int]map[int]bool, down map[int]bool) ([]bgp.Hop, error) {
	hops := make([]bgp.Hop, g.n)
	for v, w := range col {
		if w == 0 {
			continue
		}
		rel, ln, nh := unpackWord(w)
		h := bgp.Hop{NextHop: -1, Link: -1, Len: uint16(ln), Src: rel}
		if rel != relOrigin {
			link, err := g.learnedLink(int32(v), nh, rel, col, down, suppress)
			if err != nil {
				return nil, err
			}
			h.NextHop, h.Link = nh, link
		}
		hops[v] = h
	}
	return hops, nil
}

// learnedLink picks the link an AS learned its settled route over: among
// its live, unsuppressed adjacencies toward the next hop under the
// settled view, the nearest-interconnect one, lowest link ID on ties.
func (g *Graph) learnedLink(v, nh int32, rel uint8, col []uint32, down map[int]bool, suppress map[int]map[int]bool) (int32, error) {
	view := viewOfRel(rel)
	nhRel, _, _ := unpackWord(col[nh])
	nhOrigin := col[nh] != 0 && nhRel == relOrigin
	bestLink := int32(-1)
	bestDist := 0.0
	for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
		if g.adjOther[i] != nh || g.adjView[i] != view {
			continue
		}
		l := g.adjLink[i]
		if down != nil && down[int(l)] {
			continue
		}
		if nhOrigin && suppress != nil && suppress[int(nh)][int(l)] {
			continue
		}
		d := g.adjDist[i]
		if bestLink < 0 || d < bestDist || (d == bestDist && l < bestLink) {
			bestLink, bestDist = l, d
		}
	}
	if bestLink < 0 {
		return 0, fmt.Errorf("matbgp: internal: no live link from AS %d to next hop %d", v, nh)
	}
	return bestLink, nil
}
