package topology

import (
	"fmt"
	"math"
	"sort"

	"beatbgp/internal/cable"
	"beatbgp/internal/geo"
	"beatbgp/internal/xrand"
)

// GenConfig parameterizes topology generation. The zero value is usable:
// Generate fills in defaults.
type GenConfig struct {
	Seed uint64

	Tier1Count         int // global backbones (default 8)
	TransitsPerRegion  int // regional transit providers (default 4)
	EyeballsPerRegion  int // access networks per region (default 20)
	PrefixesPerEyeball int // mean prefixes originated per eyeball (default 3)

	// TransitPeerProb is the probability that two same-region transits
	// peer (default 0.5).
	TransitPeerProb float64
	// EyeballPeerProb is the probability that two eyeballs homed in the
	// same city peer (default 0.15).
	EyeballPeerProb float64
	// BigEyeballTier1Prob is the probability that a top-decile eyeball
	// also buys transit directly from a Tier-1 (default 0.5).
	BigEyeballTier1Prob float64
}

// Validate rejects nonsensical generation parameters. Zero values are
// fine (they select defaults).
func (c *GenConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Tier1Count", c.Tier1Count},
		{"TransitsPerRegion", c.TransitsPerRegion},
		{"EyeballsPerRegion", c.EyeballsPerRegion},
		{"PrefixesPerEyeball", c.PrefixesPerEyeball},
	} {
		if f.v < 0 {
			return fmt.Errorf("topology: %s = %d must be non-negative", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"TransitPeerProb", c.TransitPeerProb},
		{"EyeballPeerProb", c.EyeballPeerProb},
		{"BigEyeballTier1Prob", c.BigEyeballTier1Prob},
	} {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("topology: %s = %v must be a probability in [0, 1]", f.name, f.v)
		}
	}
	return nil
}

func (c *GenConfig) setDefaults() {
	if c.Tier1Count == 0 {
		c.Tier1Count = 8
	}
	if c.TransitsPerRegion == 0 {
		c.TransitsPerRegion = 4
	}
	if c.EyeballsPerRegion == 0 {
		c.EyeballsPerRegion = 20
	}
	if c.PrefixesPerEyeball == 0 {
		c.PrefixesPerEyeball = 3
	}
	if c.TransitPeerProb == 0 {
		c.TransitPeerProb = 0.5
	}
	if c.EyeballPeerProb == 0 {
		c.EyeballPeerProb = 0.15
	}
	if c.BigEyeballTier1Prob == 0 {
		c.BigEyeballTier1Prob = 0.5
	}
}

// Generate builds a deterministic AS-level topology per the config.
func Generate(cfg GenConfig) (*Topo, error) {
	cfg.setDefaults()
	catalog := geo.World()
	graph, err := cable.WorldGraph(catalog)
	if err != nil {
		return nil, err
	}
	t := &Topo{Catalog: catalog, Graph: graph}
	rng := xrand.New(cfg.Seed)

	if err := genTier1s(t, cfg, rng.Split("tier1")); err != nil {
		return nil, err
	}
	transitsByRegion, err := genTransits(t, cfg, rng.Split("transit"))
	if err != nil {
		return nil, err
	}
	if err := genEyeballs(t, cfg, rng.Split("eyeball"), transitsByRegion); err != nil {
		return nil, err
	}
	if err := genPrefixes(t, cfg, rng.Split("prefix")); err != nil {
		return nil, err
	}
	return t, nil
}

// topCitiesByPop returns the ids of the n highest-population cities in the
// region, deterministically.
func topCitiesByPop(catalog *geo.Catalog, region geo.Region, n int) []int {
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
	return append([]int(nil), ids[:n]...)
}

func genTier1s(t *Topo, cfg GenConfig, rng *xrand.Rand) error {
	catalog := t.Catalog
	var tier1s []int
	// Every Tier-1 is present at the major submarine-cable landing hubs:
	// real global backbones all light the same few intercontinental
	// systems, and without them a Tier-1 could not carry, e.g., India
	// traffic westward over the Suez route (the §3.3.2 mechanism).
	hubNames := []string{
		"NewYork", "Miami", "LosAngeles", "Seattle",
		"SaoPaulo", "Fortaleza",
		"London", "Paris", "Frankfurt", "Marseille",
		"Dubai", "Jeddah", "Alexandria",
		"Mumbai", "Chennai", "Singapore", "HongKong", "Tokyo",
		"Sydney", "Johannesburg", "Lagos",
	}
	var hubs []int
	for _, name := range hubNames {
		c, ok := catalog.ByName(name)
		if !ok {
			return fmt.Errorf("topology: hub city %q missing from catalog", name)
		}
		hubs = append(hubs, c.ID)
	}
	for i := 0; i < cfg.Tier1Count; i++ {
		// Global footprint: the cable hubs, the four biggest cities of
		// every region, plus half of the remaining cities per region —
		// Tier-1 backbones are dense, which keeps their internal geometry
		// direct.
		cities := append([]int(nil), hubs...)
		for _, region := range geo.Regions() {
			top := topCitiesByPop(catalog, region, 4)
			cities = append(cities, top...)
			rest := catalog.InRegion(region)
			perm := rng.Perm(len(rest))
			take := len(rest) / 2
			for _, idx := range perm[:take] {
				cities = append(cities, rest[idx])
			}
		}
		// Headquarters rotate across the major markets; the HQ region
		// anchors the geographic tie-break in the decision process, which
		// stands in for per-ingress hot-potato choices a single-node AS
		// model cannot express.
		hqs := []geo.Region{geo.NorthAmerica, geo.Europe, geo.Asia}
		a, err := t.AddAS(100+i, fmt.Sprintf("T1-%d", i), Tier1, hqs[i%len(hqs)],
			cities, rng.Uniform(1.03, 1.08), EarlyExit)
		if err != nil {
			return err
		}
		tier1s = append(tier1s, a.ID)
	}
	// Settlement-free clique.
	for i := 0; i < len(tier1s); i++ {
		for j := i + 1; j < len(tier1s); j++ {
			if _, err := t.Connect(tier1s[i], tier1s[j], P2P, nil, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// genTransits creates regional transits and guarantees every region city
// is covered by at least two of its region's transits, so eyeballs can
// always buy transit at home.
func genTransits(t *Topo, cfg GenConfig, rng *xrand.Rand) (map[geo.Region][]int, error) {
	catalog := t.Catalog
	tier1s := t.ByClass(Tier1)
	byRegion := make(map[geo.Region][]int)
	asn := 1000
	for _, region := range geo.Regions() {
		regionCities := catalog.InRegion(region)
		n := cfg.TransitsPerRegion
		if n > len(regionCities) {
			n = len(regionCities)
		}
		footprints := make(map[int]map[int]bool, n) // transit index -> city set
		for i := 0; i < n; i++ {
			footprints[i] = make(map[int]bool)
			// Random 60-90% of region cities.
			perm := rng.Perm(len(regionCities))
			take := int(float64(len(regionCities)) * rng.Uniform(0.6, 0.9))
			if take < 1 {
				take = 1
			}
			for _, idx := range perm[:take] {
				footprints[i][regionCities[idx]] = true
			}
			// Always present at the regional hub for upstream interconnection.
			footprints[i][topCitiesByPop(catalog, region, 1)[0]] = true
		}
		// Coverage guarantee: each region city in >= 2 transit footprints
		// (or all of them when fewer than 2 exist).
		for _, city := range regionCities {
			covered := 0
			for i := 0; i < n; i++ {
				if footprints[i][city] {
					covered++
				}
			}
			for i := 0; covered < 2 && i < n; i++ {
				if !footprints[i][city] {
					footprints[i][city] = true
					covered++
				}
			}
		}
		for i := 0; i < n; i++ {
			var cities []int
			for c := range footprints[i] {
				cities = append(cities, c)
			}
			sort.Ints(cities)
			a, err := t.AddAS(asn, fmt.Sprintf("TR-%s-%d", region, i), Transit, region,
				cities, rng.Uniform(1.08, 1.18), EarlyExit)
			asn++
			if err != nil {
				return nil, err
			}
			byRegion[region] = append(byRegion[region], a.ID)
			// Buy from 2-3 Tier-1s.
			upstreams := 2 + rng.Intn(2)
			perm := rng.Perm(len(tier1s))
			connected := 0
			for _, idx := range perm {
				if connected >= upstreams {
					break
				}
				if len(SharedCities(t.ASes[a.ID], t.ASes[tier1s[idx]])) == 0 {
					continue
				}
				if _, err := t.Connect(a.ID, tier1s[idx], C2P, nil, false); err != nil {
					return nil, err
				}
				connected++
			}
			if connected == 0 {
				return nil, fmt.Errorf("topology: transit %s found no reachable Tier-1", a.Name)
			}
		}
		// Same-region transit peering.
		ids := byRegion[region]
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if !rng.Bool(cfg.TransitPeerProb) {
					continue
				}
				if len(SharedCities(t.ASes[ids[i]], t.ASes[ids[j]])) == 0 {
					continue
				}
				if _, err := t.Connect(ids[i], ids[j], P2P, nil, false); err != nil {
					return nil, err
				}
			}
		}
	}
	return byRegion, nil
}

func genEyeballs(t *Topo, cfg GenConfig, rng *xrand.Rand, transitsByRegion map[geo.Region][]int) error {
	catalog := t.Catalog
	tier1s := t.ByClass(Tier1)
	asn := 10000
	for _, region := range geo.Regions() {
		regionCities := catalog.InRegion(region)
		weights := make([]float64, len(regionCities))
		for i, c := range regionCities {
			weights[i] = catalog.City(c).Pop
		}
		var regionEyeballs []int
		for i := 0; i < cfg.EyeballsPerRegion; i++ {
			home := regionCities[rng.WeightedChoice(weights)]
			homeCountry := catalog.City(home).Country
			// Footprint: home city plus all same-country cities in region,
			// each kept with probability 0.7 (national ISPs rarely cover
			// every metro).
			cities := []int{home}
			for _, c := range regionCities {
				if c != home && catalog.City(c).Country == homeCountry && rng.Bool(0.7) {
					cities = append(cities, c)
				}
			}
			a, err := t.AddAS(asn, fmt.Sprintf("EYE-%s-%d", homeCountry, asn), Eyeball, region,
				cities, rng.Uniform(1.15, 1.35), EarlyExit)
			asn++
			if err != nil {
				return err
			}
			a.LastMileMs = rng.LogNormal(2.08, 0.5) // median ~8 ms
			regionEyeballs = append(regionEyeballs, a.ID)

			// Multi-home to 1-3 region transits that cover a footprint city.
			var candidates []int
			for _, tr := range transitsByRegion[region] {
				if len(SharedCities(a, t.ASes[tr])) > 0 {
					candidates = append(candidates, tr)
				}
			}
			if len(candidates) == 0 {
				return fmt.Errorf("topology: eyeball %s has no covering transit", a.Name)
			}
			var homes int
			switch u := rng.Float64(); {
			case u < 0.35:
				homes = 1
			case u < 0.80:
				homes = 2
			default:
				homes = 3
			}
			if homes > len(candidates) {
				homes = len(candidates)
			}
			perm := rng.Perm(len(candidates))
			for k := 0; k < homes; k++ {
				if _, err := t.Connect(a.ID, candidates[perm[k]], C2P, nil, false); err != nil {
					return err
				}
			}
			// Top-decile eyeballs sometimes buy from a Tier-1 directly.
			if catalog.City(home).Pop >= 10 && rng.Bool(cfg.BigEyeballTier1Prob) {
				perm := rng.Perm(len(tier1s))
				for _, idx := range perm {
					if len(SharedCities(a, t.ASes[tier1s[idx]])) > 0 {
						if _, err := t.Connect(a.ID, tier1s[idx], C2P, nil, false); err != nil {
							return err
						}
						break
					}
				}
			}
		}
		// Same-city eyeball peering.
		for i := 0; i < len(regionEyeballs); i++ {
			for j := i + 1; j < len(regionEyeballs); j++ {
				if !rng.Bool(cfg.EyeballPeerProb) {
					continue
				}
				if len(SharedCities(t.ASes[regionEyeballs[i]], t.ASes[regionEyeballs[j]])) == 0 {
					continue
				}
				if _, err := t.Connect(regionEyeballs[i], regionEyeballs[j], P2P, nil, false); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func genPrefixes(t *Topo, cfg GenConfig, rng *xrand.Rand) error {
	catalog := t.Catalog
	for _, a := range t.ASes {
		if a.Class != Eyeball {
			continue
		}
		n := 1 + rng.Intn(2*cfg.PrefixesPerEyeball-1)
		weights := make([]float64, len(a.Cities))
		for i, c := range a.Cities {
			weights[i] = catalog.City(c).Pop
		}
		for k := 0; k < n; k++ {
			city := a.Cities[rng.WeightedChoice(weights)]
			w := catalog.City(city).Pop * rng.LogNormal(0, 0.6)
			if _, err := t.AddPrefix(a.ID, city, w); err != nil {
				return err
			}
		}
	}
	return nil
}
