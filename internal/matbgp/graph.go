// Package matbgp is the batch all-pairs BGP engine: Gao–Rexford
// valley-free propagation over flat arrays instead of per-AS maps, in the
// style of matrix-bgpsim. A topology is lowered once into a dense CSR
// adjacency Graph with every decision-process input precomputed (relation
// views, geographic tie-break distances, neighbor ASNs); each prefix then
// propagates frontier-at-a-time — customer routes up by path length, peer
// routes one hop, provider routes down by path length — and the result is
// packed into one 32-bit word per (AS, origin): 2 bits of relation class,
// 10 bits of path length, 20 bits of next hop.
//
// Stub ASes (no customers) with identical provider/peer sets form
// equivalence classes: the column toward any member is identical except
// for the member's own row, the representative's row, and the link choice
// at direct adopters, all of which the engine fixes up at materialization
// time. With hundreds of stubs sharing a few dozen classes this collapses
// most of the all-pairs work.
//
// The recursive engine in internal/bgp is the differential reference:
// Engine must agree with bgp.ComputeWithout bit for bit, including path
// and link slices and every tie-break. See the differential unit and fuzz
// tests in this package.
package matbgp

import (
	"fmt"
	"sort"
	"sync"

	"beatbgp/internal/bgp"
	"beatbgp/internal/topology"
)

// maxASes is the dense-index capacity of the 20-bit next-hop field.
const maxASes = 1 << 20

// maxPathLen is the capacity of the 10-bit path-length field.
const maxPathLen = 1<<10 - 1

// Link declares one adjacency for a Graph built without a topology (the
// synthetic-scale benchmarks). For C2P, A is the customer, mirroring
// topology.Link. DistA/DistB are the geographic tie-break metrics of the
// link as seen from A and B respectively.
type Link struct {
	A, B         int
	Rel          topology.Rel
	DistA, DistB float64
}

// Graph is a topology lowered to dense arrays: a CSR adjacency list per
// AS with the decision process's inputs precomputed per directed edge.
type Graph struct {
	n   int
	asn []int32

	adjOff    []int32   // n+1 offsets into the adjacency arrays
	adjLink   []int32   // link ID
	adjOther  []int32   // neighbor AS
	adjView   []uint8   // topology.RelView of the neighbor, from the owner
	adjDist   []float64 // geographic tie-break at the owner for this link
	adjDistIn []float64 // the same link's tie-break at the neighbor's end

	// linkAdj maps link ID i to its two adjacency indices (2i at the
	// link's A side, 2i+1 at the B side), so delta repair can reach a
	// flapped link's endpoints without scanning the CSR.
	nLinks  int
	linkAdj []int32

	// Stub compression: classOf[v] >= 0 groups stubs (no customer-view
	// adjacencies) by identical (provider set, peer set) signature;
	// classes holds each class's members in ascending order.
	classOf []int32
	classes [][]int32

	// cols pools column-build state (*colState), so a warm column
	// allocates only the column it returns. Concurrent builds each take
	// their own state.
	cols sync.Pool
	// scratch pools repair workspaces (*RepairScratch) for Repairers
	// without a shared one: each Apply borrows one and returns it clean.
	scratch sync.Pool
}

// FromTopo lowers a topology into a Graph, precomputing exactly the
// tie-break distances bgp's decision process would derive on the fly.
func FromTopo(t *topology.Topo) (*Graph, error) {
	n := t.NumASes()
	links := make([]Link, len(t.Links))
	for i, l := range t.Links {
		links[i] = Link{
			A: l.A, B: l.B, Rel: l.Rel,
			DistA: bgp.TieDistKm(t, l.A, l.ID),
			DistB: bgp.TieDistKm(t, l.B, l.ID),
		}
	}
	asn := make([]int, n)
	for i, a := range t.ASes {
		asn[i] = a.ASN
	}
	return New(n, asn, links)
}

// New builds a Graph from first principles: n ASes (dense IDs 0..n-1),
// their ASNs, and the link list in link-ID order. Links must connect
// distinct in-range ASes; link IDs are their indices in the slice,
// matching topology.Topo's dense link numbering.
func New(n int, asn []int, links []Link) (*Graph, error) {
	if n < 0 || n > maxASes {
		return nil, fmt.Errorf("matbgp: %d ASes exceeds the %d dense-index capacity", n, maxASes)
	}
	if len(asn) != n {
		return nil, fmt.Errorf("matbgp: %d ASNs for %d ASes", len(asn), n)
	}
	g := &Graph{n: n, asn: make([]int32, n)}
	for i, a := range asn {
		g.asn[i] = int32(a)
	}
	// Degree count, then CSR fill in link-ID order per AS — the same
	// ascending-link iteration order topology.Neighbors presents, which
	// the reference engine's first-wins tie behavior depends on.
	deg := make([]int32, n)
	for i, l := range links {
		if l.A == l.B || l.A < 0 || l.B < 0 || l.A >= n || l.B >= n {
			return nil, fmt.Errorf("matbgp: link %d endpoints (%d,%d) invalid", i, l.A, l.B)
		}
		deg[l.A]++
		deg[l.B]++
	}
	g.adjOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		g.adjOff[i+1] = g.adjOff[i] + deg[i]
	}
	m := int(g.adjOff[n])
	g.adjLink = make([]int32, m)
	g.adjOther = make([]int32, m)
	g.adjView = make([]uint8, m)
	g.adjDist = make([]float64, m)
	g.adjDistIn = make([]float64, m)
	g.nLinks = len(links)
	g.linkAdj = make([]int32, 2*len(links))
	fill := make([]int32, n)
	copy(fill, g.adjOff[:n])
	for i, l := range links {
		ia, ib := fill[l.A], fill[l.B]
		fill[l.A]++
		fill[l.B]++
		g.linkAdj[2*i], g.linkAdj[2*i+1] = ia, ib
		viewA, viewB := topology.ViewPeer, topology.ViewPeer
		if l.Rel == topology.C2P {
			viewA, viewB = topology.ViewProvider, topology.ViewCustomer
		}
		g.adjLink[ia], g.adjOther[ia], g.adjView[ia], g.adjDist[ia], g.adjDistIn[ia] =
			int32(i), int32(l.B), uint8(viewA), l.DistA, l.DistB
		g.adjLink[ib], g.adjOther[ib], g.adjView[ib], g.adjDist[ib], g.adjDistIn[ib] =
			int32(i), int32(l.A), uint8(viewB), l.DistB, l.DistA
	}
	g.compress()
	return g, nil
}

// NumASes returns the AS count.
func (g *Graph) NumASes() int { return g.n }

// compress groups stubs — ASes with no customer-view adjacencies — by
// their deduplicated (neighbor, view) signature. Two stubs in one class
// see the same provider and peer AS sets; parallel-link multiplicity and
// per-link geography deliberately do not enter the signature, because no
// decision anywhere in a column depends on them except the link choice at
// the origin's direct adopters, which materialization recomputes per
// member. Members of a class are never adjacent to each other (a link
// between them would put each in the other's signature but not its own).
func (g *Graph) compress() {
	g.classOf = make([]int32, g.n)
	bySig := make(map[string]int32)
	var sig []byte
	for v := 0; v < g.n; v++ {
		g.classOf[v] = -1
		stub := true
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			if g.adjView[i] == uint8(topology.ViewCustomer) {
				stub = false
				break
			}
		}
		if !stub {
			continue
		}
		// Signature: sorted distinct (neighbor, view) pairs. Adjacencies
		// are link-ordered, so collect then sort.
		type pair struct {
			other int32
			view  uint8
		}
		var pairs []pair
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			pairs = append(pairs, pair{g.adjOther[i], g.adjView[i]})
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].other != pairs[j].other {
				return pairs[i].other < pairs[j].other
			}
			return pairs[i].view < pairs[j].view
		})
		sig = sig[:0]
		var last pair
		for i, p := range pairs {
			if i > 0 && p == last {
				continue
			}
			last = p
			sig = append(sig,
				byte(p.other), byte(p.other>>8), byte(p.other>>16), p.view)
		}
		id, ok := bySig[string(sig)]
		if !ok {
			id = int32(len(g.classes))
			bySig[string(sig)] = id
			g.classes = append(g.classes, nil)
		}
		g.classOf[v] = id
		g.classes[id] = append(g.classes[id], int32(v))
	}
}
