// Package topology models the AS-level Internet: autonomous systems with
// geographic footprints on the physical cable graph, business
// relationships (customer-provider and settlement-free peering),
// interconnection facilities, and originated prefixes with client
// populations.
//
// The generated topologies follow the standard Internet hierarchy: a
// clique of global Tier-1 backbones, regional transit networks buying
// from them, and eyeball/access networks at the edge hosting clients.
// Content providers are added on top by the provider package.
package topology

import (
	"fmt"
	"sort"

	"beatbgp/internal/cable"
	"beatbgp/internal/geo"
	"beatbgp/internal/inet"
)

// Class categorizes an AS's role in the routing hierarchy.
type Class int

// AS classes.
const (
	Tier1   Class = iota // global backbone, settlement-free peer clique
	Transit              // regional/national transit provider
	Eyeball              // access network hosting clients
	Content              // content/cloud provider (added by the provider package)
)

func (c Class) String() string {
	switch c {
	case Tier1:
		return "tier1"
	case Transit:
		return "transit"
	case Eyeball:
		return "eyeball"
	case Content:
		return "content"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ExitPolicy selects how an AS chooses the handoff point when several
// interconnection cities are available to the next hop.
type ExitPolicy int

const (
	// EarlyExit (hot potato) hands traffic off at the interconnection
	// nearest to where it entered the AS. This is the Internet default.
	EarlyExit ExitPolicy = iota
	// LateExit carries traffic on the AS's own backbone to the
	// interconnection nearest the destination (cold potato). Content
	// provider WANs and premium transit products behave this way.
	LateExit
)

func (e ExitPolicy) String() string {
	if e == LateExit {
		return "late-exit"
	}
	return "early-exit"
}

// AS is one autonomous system.
type AS struct {
	ID         int    // dense index into Topo.ASes
	ASN        int    // display AS number
	Name       string // human-readable name
	Class      Class
	Region     geo.Region // home region (Tier-1s are global but keep an HQ region)
	Cities     []int      // footprint city IDs, ascending
	Net        *cable.Network
	Exit       ExitPolicy
	LastMileMs float64 // median access-network RTT added for clients homed here

	links []int // link IDs incident to this AS
}

// Rel is the business relationship on a link.
type Rel int

const (
	// C2P: Link.A is a customer of Link.B.
	C2P Rel = iota
	// P2P: settlement-free peers.
	P2P
)

func (r Rel) String() string {
	if r == P2P {
		return "p2p"
	}
	return "c2p"
}

// Link is an interconnection between two ASes, possibly at several cities.
type Link struct {
	ID      int
	A, B    int // AS IDs; for C2P, A is the customer
	Rel     Rel
	Cities  []int // facilities where the two ASes interconnect, ascending
	Private bool  // true for dedicated PNIs, false for public IXP fabric
}

// Other returns the AS on the link that is not asID.
func (l Link) Other(asID int) int {
	if asID == l.A {
		return l.B
	}
	return l.A
}

// RelView is a link relationship from one AS's point of view.
type RelView int

const (
	ViewProvider RelView = iota // the neighbor is my provider
	ViewCustomer                // the neighbor is my customer
	ViewPeer                    // the neighbor is my peer
)

func (v RelView) String() string {
	switch v {
	case ViewProvider:
		return "provider"
	case ViewCustomer:
		return "customer"
	default:
		return "peer"
	}
}

// Neighbor is one adjacency from a given AS's perspective.
type Neighbor struct {
	Link  int // link ID
	Other int // neighbor AS ID
	View  RelView
}

// Prefix is an originated address block with a client population anchored
// at a city (clients of the prefix live in that metro area).
type Prefix struct {
	ID     int
	Origin int     // originating AS ID
	City   int     // anchor city
	Weight float64 // relative traffic/population weight
	// CIDR is the prefix's address block, allocated at creation from the
	// topology's client address pool.
	CIDR inet.Prefix
}

// Topo is a complete AS-level topology.
type Topo struct {
	Catalog  *geo.Catalog
	Graph    *cable.Graph
	ASes     []*AS
	Links    []Link
	Prefixes []Prefix

	alloc *inet.Allocator // client address pool
	fib   inet.Table[int] // CIDR -> prefix ID
}

// clientPrefixBits is the block size every client prefix receives: a /20
// (4096 addresses, sixteen /24s — the granularity the paper's datasets
// aggregate at). Blocks are carved sequentially from 10.0.0.0/8.
const clientPrefixBits = 20

func (t *Topo) allocator() *inet.Allocator {
	if t.alloc == nil {
		t.alloc = inet.NewAllocator(inet.MustParsePrefix("10.0.0.0/8"))
	}
	return t.alloc
}

// PrefixByAddr returns the client prefix containing the address, by
// longest-prefix match over the originated blocks.
func (t *Topo) PrefixByAddr(addr uint32) (Prefix, bool) {
	id, ok := t.fib.Lookup(addr)
	if !ok {
		return Prefix{}, false
	}
	return t.Prefixes[id], true
}

// NumASes returns the number of ASes.
func (t *Topo) NumASes() int { return len(t.ASes) }

// Clone returns a structurally independent snapshot of the topology:
// AddAS, Connect, and AddPrefix on the clone never mutate the original
// (and vice versa), and the two evolve identically given identical calls,
// so "clone then extend" is byte-equivalent to "extend in place". The
// immutable substructures — the city catalog, the physical cable graph
// (which nothing mutates: provider.Build replaces the clone's Graph with
// its own WAN-extended copy), and each AS's backbone cable.Network (whose
// distance memo is concurrency-safe) — are shared by pointer, which keeps
// a clone cheap: the cost is one AS-table copy plus the prefix FIB.
func (t *Topo) Clone() *Topo {
	nt := &Topo{
		Catalog:  t.Catalog,
		Graph:    t.Graph,
		ASes:     make([]*AS, len(t.ASes)),
		Links:    append([]Link(nil), t.Links...),
		Prefixes: append([]Prefix(nil), t.Prefixes...),
		fib:      t.fib.Clone(),
	}
	for i, a := range t.ASes {
		cp := *a
		// Cities slices are never mutated after AddAS; the incident-link
		// list grows on Connect and must not alias the original's.
		cp.links = append([]int(nil), a.links...)
		nt.ASes[i] = &cp
	}
	if t.alloc != nil {
		nt.alloc = t.alloc.Clone()
	}
	return nt
}

// AddAS appends a new AS with the given footprint, building its backbone
// network over the physical graph (leasing segments if the footprint
// subgraph is disconnected). It returns the new AS.
func (t *Topo) AddAS(asn int, name string, class Class, region geo.Region,
	cities []int, stretch float64, exit ExitPolicy) (*AS, error) {
	if len(cities) == 0 {
		return nil, fmt.Errorf("topology: AS %s has no footprint", name)
	}
	sorted := append([]int(nil), cities...)
	sort.Ints(sorted)
	sorted = dedupInts(sorted)
	net, err := cable.NetworkFromCities(t.Graph, name, sorted, stretch)
	if err != nil {
		return nil, fmt.Errorf("topology: AS %s: %w", name, err)
	}
	a := &AS{
		ID:     len(t.ASes),
		ASN:    asn,
		Name:   name,
		Class:  class,
		Region: region,
		Cities: sorted,
		Net:    net,
		Exit:   exit,
	}
	t.ASes = append(t.ASes, a)
	return a, nil
}

// AddASWithNetwork appends an AS whose backbone is the given prebuilt
// network (e.g. a content provider's curated WAN) instead of the
// footprint-induced subgraph. Every listed city must be present in the
// network.
func (t *Topo) AddASWithNetwork(asn int, name string, class Class, region geo.Region,
	cities []int, net *cable.Network, exit ExitPolicy) (*AS, error) {
	if len(cities) == 0 {
		return nil, fmt.Errorf("topology: AS %s has no footprint", name)
	}
	sorted := dedupInts(sortedCopy(cities))
	for _, c := range sorted {
		if !net.Present(c) {
			return nil, fmt.Errorf("topology: AS %s city %d not in its network", name, c)
		}
	}
	a := &AS{
		ID:     len(t.ASes),
		ASN:    asn,
		Name:   name,
		Class:  class,
		Region: region,
		Cities: sorted,
		Net:    net,
		Exit:   exit,
	}
	t.ASes = append(t.ASes, a)
	return a, nil
}

func sortedCopy(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	return out
}

// Connect creates a link between two ASes. For C2P, a is the customer.
// Interconnection cities default to the footprint intersection; pass an
// explicit list to restrict them (e.g. PNIs at specific PoPs). At least
// one shared city is required.
func (t *Topo) Connect(a, b int, rel Rel, cities []int, private bool) (Link, error) {
	if a == b {
		return Link{}, fmt.Errorf("topology: AS %d cannot link to itself", a)
	}
	if a < 0 || b < 0 || a >= len(t.ASes) || b >= len(t.ASes) {
		return Link{}, fmt.Errorf("topology: link endpoints out of range (%d,%d)", a, b)
	}
	if cities == nil {
		cities = SharedCities(t.ASes[a], t.ASes[b])
	} else {
		for _, c := range cities {
			if !t.ASes[a].Net.Present(c) || !t.ASes[b].Net.Present(c) {
				return Link{}, fmt.Errorf("topology: link %s-%s at city %d outside a footprint",
					t.ASes[a].Name, t.ASes[b].Name, c)
			}
		}
		cities = dedupInts(append([]int(nil), cities...))
	}
	if len(cities) == 0 {
		return Link{}, fmt.Errorf("topology: ASes %s and %s share no city",
			t.ASes[a].Name, t.ASes[b].Name)
	}
	sort.Ints(cities)
	l := Link{ID: len(t.Links), A: a, B: b, Rel: rel, Cities: cities, Private: private}
	t.Links = append(t.Links, l)
	t.ASes[a].links = append(t.ASes[a].links, l.ID)
	t.ASes[b].links = append(t.ASes[b].links, l.ID)
	return l, nil
}

// Neighbors returns every adjacency of the AS, in link order.
func (t *Topo) Neighbors(asID int) []Neighbor {
	a := t.ASes[asID]
	out := make([]Neighbor, 0, len(a.links))
	for _, lid := range a.links {
		l := t.Links[lid]
		var view RelView
		switch {
		case l.Rel == P2P:
			view = ViewPeer
		case l.A == asID:
			view = ViewProvider // I am the customer; neighbor is my provider
		default:
			view = ViewCustomer
		}
		out = append(out, Neighbor{Link: lid, Other: l.Other(asID), View: view})
	}
	return out
}

// AddPrefix originates a prefix at the AS, anchored at one of its
// footprint cities.
func (t *Topo) AddPrefix(origin, city int, weight float64) (Prefix, error) {
	if origin < 0 || origin >= len(t.ASes) {
		return Prefix{}, fmt.Errorf("topology: prefix origin %d out of range", origin)
	}
	if !t.ASes[origin].Net.Present(city) {
		return Prefix{}, fmt.Errorf("topology: prefix city %d outside AS %s footprint",
			city, t.ASes[origin].Name)
	}
	if weight <= 0 {
		return Prefix{}, fmt.Errorf("topology: prefix weight must be positive")
	}
	cidr, err := t.allocator().Alloc(clientPrefixBits)
	if err != nil {
		return Prefix{}, fmt.Errorf("topology: %w", err)
	}
	p := Prefix{ID: len(t.Prefixes), Origin: origin, City: city, Weight: weight, CIDR: cidr}
	t.Prefixes = append(t.Prefixes, p)
	t.fib.Insert(cidr, p.ID)
	return p, nil
}

// SharedCities returns the footprint intersection of two ASes, ascending.
func SharedCities(a, b *AS) []int {
	var out []int
	i, j := 0, 0
	for i < len(a.Cities) && j < len(b.Cities) {
		switch {
		case a.Cities[i] == b.Cities[j]:
			out = append(out, a.Cities[i])
			i++
			j++
		case a.Cities[i] < b.Cities[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// ByClass returns the IDs of all ASes of the given class, ascending.
func (t *Topo) ByClass(c Class) []int {
	var out []int
	for _, a := range t.ASes {
		if a.Class == c {
			out = append(out, a.ID)
		}
	}
	return out
}

// PrefixesOf returns the prefixes originated by the AS.
func (t *Topo) PrefixesOf(asID int) []Prefix {
	var out []Prefix
	for _, p := range t.Prefixes {
		if p.Origin == asID {
			out = append(out, p)
		}
	}
	return out
}

func dedupInts(sorted []int) []int {
	if len(sorted) == 0 {
		return sorted
	}
	out := sorted[:1]
	for _, v := range sorted[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
