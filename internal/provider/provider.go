// Package provider models a large content/cloud provider on top of a
// generated topology: PoPs in major metros, a curated private WAN over the
// cable graph, rich peering at every PoP (dedicated PNIs with eyeballs,
// public IXP peering, Tier-1 transit), Edge-Fabric-style egress options
// per ⟨PoP, prefix⟩, and the two cloud networking tiers of the paper's
// §2.3.3 (Premium: enter/exit near the client over the WAN; Standard:
// enter/exit near the data center over the public Internet).
package provider

import (
	"fmt"
	"math"
	"sort"

	"beatbgp/internal/cable"
	"beatbgp/internal/geo"
	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

// Config parameterizes provider construction. The zero value gets defaults.
type Config struct {
	Seed uint64
	Name string // default "CP"
	ASN  int    // default 64500

	// PoPsPerRegion sets how many PoPs to place in each region, at the
	// region's highest-population cities. Defaults approximate a global
	// provider with a few dozen PoPs.
	PoPsPerRegion map[geo.Region]int

	DCCity string // data-center city for the cloud-tier experiments (default "CouncilBluffs")

	TransitCount int // Tier-1 transit contracts (default 3)

	PNIProb        float64 // PNI probability per co-located eyeball (default 0.65)
	PublicPeerProb float64 // public-IXP peering probability otherwise (default 0.5)
	TransitPeerMax int     // regional transits peered per PoP region (default 2)

	WANStretch float64 // WAN operational stretch (default 1.02)

	// DCLocalRadiusKm bounds which transit interconnects count as "near
	// the DC" for the Standard tier (default 1600 km).
	DCLocalRadiusKm float64

	// PeerKeepFraction < 1 drops that fraction of would-be PNI/public
	// peers (the §3.1.3 peering-reduction ablation). Default 1 (keep all).
	PeerKeepFraction float64

	// EuropeAsiaCorridor adds the WAN segment the 2019-era network lacked
	// (Asia reached the rest of the WAN only via the Pacific). Enabling
	// it is the what-if behind the paper's India finding: with westward
	// capacity the WAN no longer hauls Indian traffic the long way.
	EuropeAsiaCorridor bool
}

// Validate rejects nonsensical parameters. Zero values are fine (they
// select defaults).
func (c *Config) Validate() error {
	if c.ASN < 0 {
		return fmt.Errorf("provider: ASN = %d must be non-negative", c.ASN)
	}
	if c.TransitCount < 0 || c.TransitPeerMax < 0 {
		return fmt.Errorf("provider: TransitCount/TransitPeerMax must be non-negative")
	}
	for region, n := range c.PoPsPerRegion {
		if n < 0 {
			return fmt.Errorf("provider: PoPsPerRegion[%v] = %d must be non-negative", region, n)
		}
	}
	for name, v := range map[string]float64{
		"PNIProb": c.PNIProb, "PublicPeerProb": c.PublicPeerProb,
		"PeerKeepFraction": c.PeerKeepFraction,
	} {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("provider: %s = %v must be a probability in [0, 1]", name, v)
		}
	}
	if math.IsNaN(c.WANStretch) || math.IsInf(c.WANStretch, 0) || c.WANStretch < 0 ||
		(c.WANStretch > 0 && c.WANStretch < 1) {
		return fmt.Errorf("provider: WANStretch = %v must be at least 1 (or 0 for the default)", c.WANStretch)
	}
	if math.IsNaN(c.DCLocalRadiusKm) || math.IsInf(c.DCLocalRadiusKm, 0) || c.DCLocalRadiusKm < 0 {
		return fmt.Errorf("provider: DCLocalRadiusKm = %v must be finite and non-negative", c.DCLocalRadiusKm)
	}
	return nil
}

func (c *Config) setDefaults() {
	if c.Name == "" {
		c.Name = "CP"
	}
	if c.ASN == 0 {
		c.ASN = 64500
	}
	if c.PoPsPerRegion == nil {
		c.PoPsPerRegion = map[geo.Region]int{
			geo.NorthAmerica: 8,
			geo.Europe:       8,
			geo.Asia:         6,
			geo.SouthAmerica: 4,
			geo.MiddleEast:   2,
			geo.Africa:       2,
			geo.Oceania:      2,
		}
	}
	if c.DCCity == "" {
		c.DCCity = "CouncilBluffs"
	}
	if c.TransitCount == 0 {
		c.TransitCount = 3
	}
	if c.PNIProb == 0 {
		c.PNIProb = 0.8
	}
	if c.PublicPeerProb == 0 {
		c.PublicPeerProb = 0.6
	}
	if c.TransitPeerMax == 0 {
		c.TransitPeerMax = 3
	}
	if c.WANStretch == 0 {
		c.WANStretch = 1.02
	}
	if c.DCLocalRadiusKm == 0 {
		c.DCLocalRadiusKm = 1600
	}
	if c.PeerKeepFraction == 0 {
		c.PeerKeepFraction = 1
	}
}

// RouteClass classifies an egress option under the provider's BGP policy,
// in decreasing preference order (Facebook's policy per §3.1: private
// peers first, then public peers, then transit).
type RouteClass int

// Egress route classes.
const (
	ClassPNI RouteClass = iota
	ClassPublicPeer
	ClassTransit
)

func (c RouteClass) String() string {
	switch c {
	case ClassPNI:
		return "pni"
	case ClassPublicPeer:
		return "public-peer"
	default:
		return "transit"
	}
}

// Provider is a constructed content/cloud provider.
type Provider struct {
	Topo *topology.Topo
	AS   *topology.AS
	PoPs []int // PoP city IDs, ascending
	DC   int   // data-center city ID

	// link classification
	classes map[int]RouteClass // link ID -> class
	// dcTransitLinks are the DC-local transit links the Standard tier
	// announces over.
	dcTransitLinks []int
	popSet         map[int]bool
}

// Build places the provider into the topology (mutating it) and returns
// the handle. Call once per topology.
func Build(t *topology.Topo, cfg Config) (*Provider, error) {
	cfg.setDefaults()
	rng := xrand.New(cfg.Seed ^ 0xC0FFEE)
	catalog := t.Catalog

	dc, ok := catalog.ByName(cfg.DCCity)
	if !ok {
		return nil, fmt.Errorf("provider: unknown DC city %q", cfg.DCCity)
	}

	// PoPs: top-population cities per region.
	var pops []int
	for _, region := range geo.Regions() {
		n := cfg.PoPsPerRegion[region]
		if n <= 0 {
			continue
		}
		ids := catalog.InRegion(region)
		sort.Slice(ids, func(i, j int) bool {
			a, b := catalog.City(ids[i]), catalog.City(ids[j])
			if a.Pop != b.Pop {
				return a.Pop > b.Pop
			}
			return ids[i] < ids[j]
		})
		if n > len(ids) {
			n = len(ids)
		}
		pops = append(pops, ids[:n]...)
	}
	sort.Ints(pops)

	footprint := append([]int(nil), pops...)
	if !contains(footprint, dc.ID) {
		footprint = append(footprint, dc.ID)
		sort.Ints(footprint)
	}

	graph, wan, err := buildWAN(t.Graph, cfg.Name+"-wan", footprint, cfg.WANStretch, cfg.EuropeAsiaCorridor)
	if err != nil {
		return nil, err
	}
	// The topology adopts the WAN-extended map; the graph it was cloned
	// with stays as built, shared with every other topology over it.
	t.Graph = graph
	as, err := t.AddASWithNetwork(cfg.ASN, cfg.Name, topology.Content,
		geo.NorthAmerica, footprint, wan, topology.LateExit)
	if err != nil {
		return nil, err
	}

	p := &Provider{
		Topo:    t,
		AS:      as,
		PoPs:    pops,
		DC:      dc.ID,
		classes: make(map[int]RouteClass),
		popSet:  make(map[int]bool),
	}
	for _, c := range pops {
		p.popSet[c] = true
	}

	if err := p.buyTransit(cfg, rng); err != nil {
		return nil, err
	}
	if err := p.peerAtPoPs(cfg, rng); err != nil {
		return nil, err
	}
	return p, nil
}

func contains(sorted []int, v int) bool {
	i := sort.SearchInts(sorted, v)
	return i < len(sorted) && sorted[i] == v
}

// buildWAN curates the provider backbone: full mesh within each region's
// PoPs plus designated inter-region corridors. Crucially there is NO
// Europe<->Asia corridor: Asian PoPs (including India) reach the rest of
// the WAN via the trans-Pacific gateways, reproducing the eastward
// carriage the paper observed for Google (§3.3.2). Every WAN segment is
// leased along the physical shortest route, so its length is honest. The
// segments are laid on a private extension of g, returned with the WAN.
func buildWAN(g *cable.Graph, name string, cities []int, stretch float64, europeAsia bool) (*cable.Graph, *cable.Network, error) {
	catalog := g.Catalog()
	byRegion := make(map[geo.Region][]int)
	for _, c := range cities {
		r := catalog.City(c).Region
		byRegion[r] = append(byRegion[r], c)
	}
	type pair struct{ a, b int }
	var segments []pair
	// Intra-region mesh.
	for _, region := range geo.Regions() {
		ids := byRegion[region]
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				segments = append(segments, pair{ids[i], ids[j]})
			}
		}
	}
	// Inter-region corridors between the geographically best PoP pair of
	// each region pair (the cable landing stations a real WAN would
	// light): trans-Pacific traffic enters North America on the west
	// coast, trans-Atlantic on the east coast.
	gatewayPair := func(r1, r2 geo.Region) (int, int, bool) {
		bestA, bestB, bestKm := -1, -1, math.Inf(1)
		for _, a := range byRegion[r1] {
			for _, b := range byRegion[r2] {
				if sp, ok := g.ShortestPath(a, b); ok && sp.Km < bestKm {
					bestA, bestB, bestKm = a, b, sp.Km
				}
			}
		}
		return bestA, bestB, bestA >= 0
	}
	corridors := [][2]geo.Region{
		{geo.NorthAmerica, geo.Europe},
		{geo.NorthAmerica, geo.Asia},
		{geo.NorthAmerica, geo.SouthAmerica},
		{geo.NorthAmerica, geo.Oceania},
		{geo.Asia, geo.Oceania},
		{geo.Europe, geo.MiddleEast},
		{geo.Europe, geo.Africa},
		// Deliberately absent by default: Europe <-> Asia (2019-era
		// reality; see Config.EuropeAsiaCorridor).
	}
	if europeAsia {
		corridors = append(corridors, [2]geo.Region{geo.Europe, geo.Asia})
	}
	for _, cr := range corridors {
		if a, b, ok := gatewayPair(cr[0], cr[1]); ok {
			segments = append(segments, pair{a, b})
		}
	}
	// The DC is meshed with its region by the intra-region mesh, since
	// the footprint includes it.
	leased := make([]cable.Segment, len(segments))
	edgeIDs := make([]int, len(segments))
	for i, s := range segments {
		sp, ok := g.ShortestPath(s.a, s.b)
		if !ok {
			return nil, nil, fmt.Errorf("provider: no physical route %d-%d for WAN", s.a, s.b)
		}
		leased[i] = cable.Segment{A: s.a, B: s.b, Km: sp.Km}
		edgeIDs[i] = g.NumEdges() + i
	}
	wg, err := g.Extend(leased)
	if err != nil {
		return nil, nil, err
	}
	return wg, cable.NewNetwork(wg, name, edgeIDs, stretch), nil
}

// buyTransit contracts Tier-1 transit: one global link (all shared
// cities) per chosen Tier-1, plus a DC-local link restricted to
// interconnects near the data center for the Standard tier.
func (p *Provider) buyTransit(cfg Config, rng *xrand.Rand) error {
	t := p.Topo
	tier1s := t.ByClass(topology.Tier1)
	perm := rng.Perm(len(tier1s))
	bought := 0
	for _, idx := range perm {
		if bought >= cfg.TransitCount {
			break
		}
		t1 := tier1s[idx]
		shared := topology.SharedCities(p.AS, t.ASes[t1])
		if len(shared) == 0 {
			continue
		}
		link, err := t.Connect(p.AS.ID, t1, topology.C2P, shared, false)
		if err != nil {
			return err
		}
		p.classes[link.ID] = ClassTransit
		// DC-local link: shared cities within the radius of the DC.
		dcLoc := t.Catalog.City(p.DC).Loc
		var near []int
		for _, c := range shared {
			if geo.DistanceKm(dcLoc, t.Catalog.City(c).Loc) <= cfg.DCLocalRadiusKm {
				near = append(near, c)
			}
		}
		if len(near) > 0 {
			local, err := t.Connect(p.AS.ID, t1, topology.C2P, near, false)
			if err != nil {
				return err
			}
			p.classes[local.ID] = ClassTransit
			p.dcTransitLinks = append(p.dcTransitLinks, local.ID)
		}
		bought++
	}
	if bought == 0 {
		return fmt.Errorf("provider: no Tier-1 shares a city with the provider")
	}
	if len(p.dcTransitLinks) == 0 {
		return fmt.Errorf("provider: no transit interconnect within %.0f km of the DC", cfg.DCLocalRadiusKm)
	}
	return nil
}

// peerAtPoPs establishes PNI and public peering with co-located eyeballs
// and regional transits.
func (p *Provider) peerAtPoPs(cfg Config, rng *xrand.Rand) error {
	t := p.Topo
	for _, eyeball := range t.ByClass(topology.Eyeball) {
		shared := topology.SharedCities(p.AS, t.ASes[eyeball])
		var popShared []int
		for _, c := range shared {
			if p.popSet[c] {
				popShared = append(popShared, c)
			}
		}
		if len(popShared) == 0 {
			continue
		}
		if cfg.PeerKeepFraction < 1 && !rng.Bool(cfg.PeerKeepFraction) {
			continue // peering-reduction ablation: drop this peer entirely
		}
		switch {
		case rng.Bool(cfg.PNIProb):
			link, err := t.Connect(eyeball, p.AS.ID, topology.P2P, popShared, true)
			if err != nil {
				return err
			}
			p.classes[link.ID] = ClassPNI
		case rng.Bool(cfg.PublicPeerProb):
			link, err := t.Connect(eyeball, p.AS.ID, topology.P2P, popShared, false)
			if err != nil {
				return err
			}
			p.classes[link.ID] = ClassPublicPeer
		}
	}
	// Public peering with regional transits (route diversity at PoPs).
	for _, region := range geo.Regions() {
		count := 0
		for _, tr := range t.ByClass(topology.Transit) {
			if count >= cfg.TransitPeerMax {
				break
			}
			if t.ASes[tr].Region != region {
				continue
			}
			shared := topology.SharedCities(p.AS, t.ASes[tr])
			var popShared []int
			for _, c := range shared {
				if p.popSet[c] {
					popShared = append(popShared, c)
				}
			}
			if len(popShared) == 0 {
				continue
			}
			link, err := t.Connect(tr, p.AS.ID, topology.P2P, popShared, false)
			if err != nil {
				return err
			}
			p.classes[link.ID] = ClassPublicPeer
			count++
		}
	}
	return nil
}

// LinkClass returns the provider's classification of one of its links.
func (p *Provider) LinkClass(linkID int) (RouteClass, bool) {
	c, ok := p.classes[linkID]
	return c, ok
}

// PeerLinks returns the provider's links of the given class.
func (p *Provider) PeerLinks(class RouteClass) []int {
	var out []int
	for id, c := range p.classes {
		if c == class {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// ServingPoP returns the PoP city nearest (geodesically) to the client
// city — the paper's setting where DNS/anycast has already steered the
// client to a close PoP and the question is egress selection.
func (p *Provider) ServingPoP(clientCity int) int {
	loc := p.Topo.Catalog.City(clientCity).Loc
	best, bestKm := -1, math.Inf(1)
	for _, c := range p.PoPs {
		if d := geo.DistanceKm(loc, p.Topo.Catalog.City(c).Loc); d < bestKm {
			best, bestKm = c, d
		}
	}
	return best
}

// PoPDistanceKm returns the geodesic distance from a client city to its
// serving PoP.
func (p *Provider) PoPDistanceKm(clientCity int) float64 {
	pop := p.ServingPoP(clientCity)
	return geo.DistanceKm(p.Topo.Catalog.City(clientCity).Loc, p.Topo.Catalog.City(pop).Loc)
}
