package cable

import (
	"fmt"
	"math"
	"sync"
)

// Network is one organization's overlay on the physical graph: the subset
// of fiber segments it lights, plus an operational stretch factor that
// models how well-run its internal routing is (1.0 = optimal shortest
// paths; eyeball ISPs typically run 1.1–1.3).
//
// A Network memoizes single-source shortest-path trees, so repeated Path
// queries are cheap. The memo is guarded, so Path and DistKm are safe to
// call from any number of goroutines (internal/par workers included);
// each tree is a pure function of the source city, so query results are
// identical whatever the interleaving. Topology (the edge set and
// footprint) is fixed at construction and must not change afterwards.
type Network struct {
	Name    string
	Stretch float64

	g       *Graph
	edgeOK  []bool
	present []bool // city -> is in footprint

	mu    sync.RWMutex
	cache map[int]sstree
}

type sstree struct {
	dist     []float64
	prevEdge []int
}

// NewNetwork builds an overlay containing exactly the given edge IDs.
// Stretch values below 1 are raised to 1.
func NewNetwork(g *Graph, name string, edgeIDs []int, stretch float64) *Network {
	if stretch < 1 {
		stretch = 1
	}
	n := &Network{
		Name:    name,
		Stretch: stretch,
		g:       g,
		edgeOK:  make([]bool, g.NumEdges()),
		present: make([]bool, g.Catalog().Len()),
		cache:   make(map[int]sstree),
	}
	for _, id := range edgeIDs {
		n.edgeOK[id] = true
		e := g.Edge(id)
		n.present[e.A] = true
		n.present[e.B] = true
	}
	return n
}

// NetworkFromCities builds an overlay whose *presence* (where it can
// originate, terminate, and interconnect traffic) is the given footprint,
// but whose *conduit* is the whole physical graph: real networks lease
// IRU capacity along entire cable systems, so their internal paths follow
// physically shortest routes between their cities even when intermediate
// landing points are not commercial PoPs of theirs. Modeling conduits as
// footprint-induced subgraphs instead produces wildly inflated internal
// geometry (a backbone missing one intermediate metro would detour across
// an ocean), which no operator would accept.
//
// Networks that deliberately restrict their conduit — such as a content
// provider's curated WAN — use NewNetwork with an explicit edge list.
func NetworkFromCities(g *Graph, name string, cities []int, stretch float64) (*Network, error) {
	if len(cities) == 0 {
		return nil, fmt.Errorf("cable: network %q has empty footprint", name)
	}
	edgeIDs := make([]int, g.NumEdges())
	for i := range edgeIDs {
		edgeIDs[i] = i
	}
	n := NewNetwork(g, name, edgeIDs, stretch)
	// Presence is the footprint, not "every city an edge touches".
	for i := range n.present {
		n.present[i] = false
	}
	for _, c := range cities {
		if c < 0 || c >= len(n.present) {
			return nil, fmt.Errorf("cable: network %q footprint city %d out of range", name, c)
		}
		n.present[c] = true
	}
	return n, nil
}

// Present reports whether the network has presence in the city.
func (n *Network) Present(city int) bool {
	return city >= 0 && city < len(n.present) && n.present[city]
}

func (n *Network) tree(src int) sstree {
	n.mu.RLock()
	t, ok := n.cache[src]
	n.mu.RUnlock()
	if ok {
		return t
	}
	// Compute outside the lock: the tree is a pure function of src, so
	// concurrent duplicate computation is wasted work at worst, never a
	// wrong answer. Last writer wins with an identical value.
	dist, prevEdge := n.g.shortest(src, func(e Edge) bool {
		return e.ID < len(n.edgeOK) && n.edgeOK[e.ID]
	})
	t = sstree{dist, prevEdge}
	n.mu.Lock()
	n.cache[src] = t
	n.mu.Unlock()
	return t
}

// Path returns the network's internal route between two footprint cities.
// The returned kilometers include the operational stretch factor. ok is
// false if either city is outside the footprint or unreachable within it.
func (n *Network) Path(from, to int) (Path, bool) {
	if !n.Present(from) || !n.Present(to) {
		return Path{}, false
	}
	if from == to {
		return Path{Cities: []int{from}}, true
	}
	t := n.tree(from)
	if math.IsInf(t.dist[to], 1) {
		return Path{}, false
	}
	var cities []int
	for at := to; ; {
		cities = append(cities, at)
		if at == from {
			break
		}
		at = n.g.edges[t.prevEdge[at]].Other(at)
	}
	for i, j := 0, len(cities)-1; i < j; i, j = i+1, j-1 {
		cities[i], cities[j] = cities[j], cities[i]
	}
	return Path{Cities: cities, Km: t.dist[to] * n.Stretch}, true
}

// DistKm returns the network-internal distance between two footprint
// cities — Path's Km, read straight off the shortest-path tree — or +Inf
// when either city is outside the footprint or unreachable.
func (n *Network) DistKm(from, to int) float64 {
	if !n.Present(from) || !n.Present(to) {
		return math.Inf(1)
	}
	if from == to {
		return 0
	}
	return n.tree(from).dist[to] * n.Stretch
}
