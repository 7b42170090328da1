// Package geo provides the geographic substrate for the simulator:
// coordinates, great-circle distances, speed-of-light-in-fiber propagation
// delays, and a built-in catalog of world cities with country, region, and
// population weights.
//
// All latencies in the repository are float64 milliseconds; all distances
// are float64 kilometers.
package geo

import (
	"fmt"
	"math"
	"sync/atomic"
)

// EarthRadiusKm is the mean Earth radius used for great-circle math.
const EarthRadiusKm = 6371.0

// FiberRTTMsPerKm is the round-trip propagation delay per kilometer of
// fiber. Light in fiber covers roughly 200 km per millisecond one way, so
// a kilometer of path costs about 0.01 ms of RTT.
const FiberRTTMsPerKm = 2.0 / 200.0

// Point is a position on the Earth's surface.
type Point struct {
	Lat float64 // degrees, positive north
	Lon float64 // degrees, positive east
}

func (p Point) String() string { return fmt.Sprintf("(%.2f,%.2f)", p.Lat, p.Lon) }

// DistanceKm returns the great-circle distance between two points using the
// haversine formula.
func DistanceKm(a, b Point) float64 {
	const rad = math.Pi / 180
	lat1, lat2 := a.Lat*rad, b.Lat*rad
	dLat := (b.Lat - a.Lat) * rad
	dLon := (b.Lon - a.Lon) * rad
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(s)))
}

// Region is a coarse geographic region used for per-region aggregation
// (Figure 3) and for topology generation.
type Region int

// Regions, ordered roughly west to east.
const (
	NorthAmerica Region = iota
	SouthAmerica
	Europe
	MiddleEast
	Africa
	Asia
	Oceania
	numRegions
)

// Regions lists every region, for iteration.
func Regions() []Region {
	r := make([]Region, numRegions)
	for i := range r {
		r[i] = Region(i)
	}
	return r
}

func (r Region) String() string {
	switch r {
	case NorthAmerica:
		return "NorthAmerica"
	case SouthAmerica:
		return "SouthAmerica"
	case Europe:
		return "Europe"
	case MiddleEast:
		return "MiddleEast"
	case Africa:
		return "Africa"
	case Asia:
		return "Asia"
	case Oceania:
		return "Oceania"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// City is one entry in the world catalog.
type City struct {
	ID      int     // index into the catalog
	Name    string  // unique city name
	Country string  // ISO-like country code
	Region  Region  // coarse region
	Loc     Point   // coordinates
	Pop     float64 // relative Internet-user population weight
}

// Catalog is an immutable set of cities with lookup helpers.
type Catalog struct {
	cities  []City
	byName  map[string]int
	regions map[Region][]int
	// dist holds one lazily built row of DistKm per city: lock-free
	// slots, the first installed row wins (a racing duplicate holds the
	// same values).
	dist []atomic.Pointer[[]float64]
}

// NewCatalog builds a catalog from the supplied cities, assigning IDs in
// order. Duplicate names are rejected.
func NewCatalog(cities []City) (*Catalog, error) {
	c := &Catalog{
		cities:  make([]City, len(cities)),
		byName:  make(map[string]int, len(cities)),
		regions: make(map[Region][]int),
		dist:    make([]atomic.Pointer[[]float64], len(cities)),
	}
	for i, city := range cities {
		if _, dup := c.byName[city.Name]; dup {
			return nil, fmt.Errorf("geo: duplicate city %q", city.Name)
		}
		if city.Pop <= 0 {
			return nil, fmt.Errorf("geo: city %q has non-positive population", city.Name)
		}
		city.ID = i
		c.cities[i] = city
		c.byName[city.Name] = i
		c.regions[city.Region] = append(c.regions[city.Region], i)
	}
	return c, nil
}

// World returns the built-in world catalog. The returned catalog is freshly
// built and safe for the caller to hold; the underlying data is constant.
func World() *Catalog {
	c, err := NewCatalog(worldCities)
	if err != nil {
		panic("geo: invalid built-in catalog: " + err.Error())
	}
	return c
}

// Len returns the number of cities.
func (c *Catalog) Len() int { return len(c.cities) }

// City returns the city with the given ID. It panics on an invalid ID,
// which always indicates a programming error.
func (c *Catalog) City(id int) City { return c.cities[id] }

// DistKm returns the great-circle distance between cities a and b, bit
// for bit DistanceKm(c.City(a).Loc, c.City(b).Loc). The first lookup
// from a builds a's row of distances to every city; later lookups are
// an index. Safe for concurrent use.
func (c *Catalog) DistKm(a, b int) float64 {
	row := c.dist[a].Load()
	if row == nil {
		row = c.distRow(a)
	}
	return (*row)[b]
}

func (c *Catalog) distRow(a int) *[]float64 {
	row := make([]float64, len(c.cities))
	for b := range c.cities {
		row[b] = DistanceKm(c.cities[a].Loc, c.cities[b].Loc)
	}
	if c.dist[a].CompareAndSwap(nil, &row) {
		return &row
	}
	return c.dist[a].Load()
}

// ByName looks a city up by name.
func (c *Catalog) ByName(name string) (City, bool) {
	id, ok := c.byName[name]
	if !ok {
		return City{}, false
	}
	return c.cities[id], true
}

// InRegion returns the IDs of all cities in the region, in catalog order.
func (c *Catalog) InRegion(r Region) []int {
	ids := c.regions[r]
	out := make([]int, len(ids))
	copy(out, ids)
	return out
}

// All returns a copy of the full city list in ID order.
func (c *Catalog) All() []City {
	out := make([]City, len(c.cities))
	copy(out, c.cities)
	return out
}
