// Package cable models the physical layer of the simulator: a graph of
// fiber segments (terrestrial routes and submarine cables) over the city
// catalog. Every network in the simulation — transit backbones, eyeball
// ISPs, and the content provider's private WAN — forwards traffic along
// some subset of this shared physical graph, so geographic routing
// artifacts (trans-Pacific vs trans-Atlantic paths, Suez-route cables,
// path stretch) emerge from the same substrate everywhere.
package cable

import (
	"container/heap"
	"fmt"
	"math"

	"beatbgp/internal/geo"
)

// Edge is one physical fiber segment between two catalog cities.
type Edge struct {
	ID        int
	A, B      int     // city IDs, A < B
	Km        float64 // route kilometers (≥ great-circle distance)
	Submarine bool
}

// Other returns the endpoint of e that is not city.
func (e Edge) Other(city int) int {
	if city == e.A {
		return e.B
	}
	return e.A
}

// Graph is the physical fiber map. Construct with WorldGraph, or derive
// a larger map with Extend; a Graph is immutable after construction and
// safe for concurrent reads, so topologies share one by pointer.
type Graph struct {
	catalog *geo.Catalog
	edges   []Edge
	adj     [][]int // city ID -> edge IDs
}

// newGraph returns an empty graph over the catalog's cities.
func newGraph(catalog *geo.Catalog) *Graph {
	return &Graph{
		catalog: catalog,
		adj:     make([][]int, catalog.Len()),
	}
}

// Catalog returns the city catalog the graph is built over.
func (g *Graph) Catalog() *geo.Catalog { return g.catalog }

// NumEdges returns the number of physical segments.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns a copy of all edges.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Segment is a fiber segment to lay between cities A and B; Km <= 0
// derives its length from the geodesic distance (see addEdge).
type Segment struct {
	A, B      int
	Km        float64
	Submarine bool
}

// Extend returns a new graph holding g's edges followed by the segments,
// in order, their IDs continuing from g.NumEdges(). g is never modified:
// an organization that lights private segments (the content provider's
// WAN) lays them on its own copy of the map it shares.
func (g *Graph) Extend(segs []Segment) (*Graph, error) {
	ng := &Graph{
		catalog: g.catalog,
		edges:   append(make([]Edge, 0, len(g.edges)+len(segs)), g.edges...),
		adj:     make([][]int, len(g.adj)),
	}
	for c, ids := range g.adj {
		ng.adj[c] = append([]int(nil), ids...)
	}
	for _, s := range segs {
		if _, err := ng.addEdge(s.A, s.B, s.Km, s.Submarine); err != nil {
			return nil, err
		}
	}
	return ng, nil
}

// addEdge inserts a segment between cities a and b during construction.
// km <= 0 means "derive from geodesic distance times circuity":
// terrestrial routes get 1.25x, submarine cables 1.15x (cables run fairly
// straight). Self-loops and out-of-range cities are rejected.
func (g *Graph) addEdge(a, b int, km float64, submarine bool) (Edge, error) {
	if a == b {
		return Edge{}, fmt.Errorf("cable: self-loop at city %d", a)
	}
	if a < 0 || b < 0 || a >= g.catalog.Len() || b >= g.catalog.Len() {
		return Edge{}, fmt.Errorf("cable: city out of range (%d,%d)", a, b)
	}
	if a > b {
		a, b = b, a
	}
	if km <= 0 {
		d := geo.DistanceKm(g.catalog.City(a).Loc, g.catalog.City(b).Loc)
		circuity := 1.25
		if submarine {
			circuity = 1.15
		}
		km = d * circuity
	}
	e := Edge{ID: len(g.edges), A: a, B: b, Km: km, Submarine: submarine}
	g.edges = append(g.edges, e)
	g.adj[a] = append(g.adj[a], e.ID)
	g.adj[b] = append(g.adj[b], e.ID)
	return e, nil
}

// EdgesAt returns the IDs of edges incident to the city.
func (g *Graph) EdgesAt(city int) []int {
	out := make([]int, len(g.adj[city]))
	copy(out, g.adj[city])
	return out
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	city int
	dist float64
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	item := old[n-1]
	*p = old[:n-1]
	return item
}

// shortest runs Dijkstra from src using only edges for which allow returns
// true (allow == nil admits every edge). It returns per-city distances in
// km (math.Inf for unreachable) and the predecessor edge IDs.
func (g *Graph) shortest(src int, allow func(Edge) bool) (dist []float64, prevEdge []int) {
	n := g.catalog.Len()
	dist = make([]float64, n)
	prevEdge = make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
	}
	dist[src] = 0
	q := &pq{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.city] {
			continue
		}
		for _, eid := range g.adj[it.city] {
			e := g.edges[eid]
			if allow != nil && !allow(e) {
				continue
			}
			next := e.Other(it.city)
			nd := it.dist + e.Km
			if nd < dist[next] {
				dist[next] = nd
				prevEdge[next] = eid
				heap.Push(q, pqItem{next, nd})
			}
		}
	}
	return dist, prevEdge
}

// Path is a physical route: the city sequence and total kilometers.
type Path struct {
	Cities []int
	Km     float64
}

// RTTMs returns the propagation round-trip time of the path.
func (p Path) RTTMs() float64 { return p.Km * geo.FiberRTTMsPerKm }

// ShortestPath returns the minimum-distance route between two cities over
// the full graph. ok is false when no route exists.
func (g *Graph) ShortestPath(from, to int) (Path, bool) {
	return g.shortestPathFiltered(from, to, nil)
}

func (g *Graph) shortestPathFiltered(from, to int, allow func(Edge) bool) (Path, bool) {
	if from == to {
		return Path{Cities: []int{from}}, true
	}
	dist, prevEdge := g.shortest(from, allow)
	if math.IsInf(dist[to], 1) {
		return Path{}, false
	}
	var cities []int
	for at := to; ; {
		cities = append(cities, at)
		if at == from {
			break
		}
		at = g.edges[prevEdge[at]].Other(at)
	}
	// Reverse into from->to order.
	for i, j := 0, len(cities)-1; i < j; i, j = i+1, j-1 {
		cities[i], cities[j] = cities[j], cities[i]
	}
	return Path{Cities: cities, Km: dist[to]}, true
}
