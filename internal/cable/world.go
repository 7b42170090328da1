package cable

import (
	"fmt"
	"math"
	"sort"

	"beatbgp/internal/geo"
)

// submarineSpec is one curated submarine cable (or inter-region land
// bridge). km == 0 derives the length from the geodesic distance.
type submarineSpec struct {
	a, b      string
	km        float64
	submarine bool
}

// worldCables is the curated long-haul map. The set is chosen to reproduce
// the real Internet's macro-geography, and in particular the paper's §3.3.2
// case study: India reaches Europe over the Suez route (short, westward)
// and East Asia over the Bay of Bengal (long, eastward toward the
// trans-Pacific cables).
var worldCables = []submarineSpec{
	// Trans-Atlantic.
	{"NewYork", "London", 0, true},
	{"Ashburn", "Paris", 0, true},
	{"Boston", "Dublin", 0, true},
	{"Miami", "Lisbon", 0, true},
	{"Montreal", "London", 0, true},

	// Trans-Pacific.
	{"Tokyo", "Seattle", 0, true},
	{"Tokyo", "LosAngeles", 0, true},
	{"Tokyo", "SanJose", 0, true},
	{"HongKong", "LosAngeles", 0, true},
	{"Sydney", "LosAngeles", 0, true},
	{"Honolulu", "LosAngeles", 0, true},
	{"Honolulu", "Tokyo", 0, true},
	{"Honolulu", "Sydney", 0, true},
	{"Honolulu", "Guam", 0, true},
	{"Guam", "Tokyo", 0, true},
	{"Guam", "Sydney", 0, true},
	{"Guam", "HongKong", 0, true},

	// Americas north-south.
	{"Miami", "Caracas", 0, true},
	{"Miami", "PanamaCity", 0, true},
	{"Miami", "Fortaleza", 0, true},
	{"PanamaCity", "Bogota", 0, true},
	{"PanamaCity", "Lima", 0, true},
	{"Lima", "Santiago", 0, true},
	{"Fortaleza", "Lisbon", 0, true},

	// Europe <-> Middle East / Suez route to Asia. The Dubai–Jeddah hop is
	// given its real sea-route length (around the Arabian peninsula), not
	// the much shorter geodesic.
	{"Marseille", "Alexandria", 0, true},
	{"Alexandria", "Jeddah", 1700, true},
	{"Jeddah", "Dubai", 3200, true},
	{"Dubai", "Mumbai", 0, true},
	{"Dubai", "Karachi", 0, true},
	{"Mumbai", "Colombo", 0, true},
	{"Colombo", "Singapore", 0, true},
	{"Chennai", "Singapore", 0, true},

	// Intra-Asia sea routes.
	{"Singapore", "HongKong", 0, true},
	{"Singapore", "Jakarta", 0, true},
	{"HongKong", "Taipei", 0, true},
	{"HongKong", "Manila", 0, true},
	{"Taipei", "Tokyo", 0, true},
	{"HongKong", "Tokyo", 0, true},
	{"Singapore", "Perth", 0, true},

	// Africa: west-coast and east-coast systems plus Mediterranean ties.
	{"Lisbon", "Casablanca", 0, true},
	{"Casablanca", "Dakar", 0, true},
	{"Dakar", "Abidjan", 0, true},
	{"Abidjan", "Accra", 0, true},
	{"Accra", "Lagos", 0, true},
	{"Lagos", "Luanda", 0, true},
	{"Luanda", "CapeTown", 0, true},
	{"Marseille", "Tunis", 0, true},
	{"Marseille", "Algiers", 0, true},
	{"Jeddah", "Mombasa", 0, true},
	{"Mombasa", "DarEsSalaam", 0, true},
	{"Cairo", "Jeddah", 0, true},

	// Inter-region land bridges.
	{"Istanbul", "Amman", 0, false},
	{"Istanbul", "Tehran", 0, false},
	{"Cairo", "Amman", 0, false},
	{"Tehran", "Karachi", 0, false},
	{"Moscow", "Almaty", 0, false},
	{"DarEsSalaam", "Johannesburg", 0, false},
	{"Cairo", "AddisAbaba", 0, false},
	{"AddisAbaba", "Nairobi", 0, false},
	{"Nairobi", "Mombasa", 0, false},
	{"Nairobi", "Kampala", 0, false},
}

// terrestrialNeighbors is how many nearest same-region cities each city is
// wired to with terrestrial fiber.
const terrestrialNeighbors = 3

// WorldGraph builds the default physical map over the catalog: terrestrial
// fiber between each city and its nearest same-region neighbors, plus the
// curated long-haul cable systems. The result is connected (verified by
// tests) and deterministic.
func WorldGraph(catalog *geo.Catalog) (*Graph, error) {
	g := newGraph(catalog)
	type pair struct{ a, b int }
	seen := make(map[pair]bool)
	add := func(a, b int, km float64, submarine bool) error {
		if a > b {
			a, b = b, a
		}
		if a == b || seen[pair{a, b}] {
			return nil
		}
		seen[pair{a, b}] = true
		_, err := g.addEdge(a, b, km, submarine)
		return err
	}

	// Terrestrial mesh: k nearest same-region neighbors, plus the
	// region's minimum spanning tree. k-nearest alone fragments dense
	// pockets (a cluster of nearby metros saturates its k slots on each
	// other and never links to the next cluster, leaving, say, western
	// India reachable from Delhi only by submarine detour); the MST
	// guarantees the terrestrial fabric is contiguous along geography.
	for _, region := range geo.Regions() {
		ids := catalog.InRegion(region)
		for _, a := range ids {
			type cand struct {
				id int
				km float64
			}
			var cands []cand
			for _, b := range ids {
				if b == a {
					continue
				}
				cands = append(cands, cand{b, geo.DistanceKm(catalog.City(a).Loc, catalog.City(b).Loc)})
			}
			sort.Slice(cands, func(i, j int) bool {
				if cands[i].km != cands[j].km {
					return cands[i].km < cands[j].km
				}
				return cands[i].id < cands[j].id
			})
			for i := 0; i < terrestrialNeighbors && i < len(cands); i++ {
				if err := add(a, cands[i].id, 0, false); err != nil {
					return nil, err
				}
			}
		}
		// Prim's MST over geodesic distances, iterated in deterministic
		// city-ID order.
		if len(ids) < 2 {
			continue
		}
		sorted := append([]int(nil), ids...)
		sort.Ints(sorted)
		inTree := map[int]bool{sorted[0]: true}
		for len(inTree) < len(sorted) {
			bestA, bestB, bestKm := -1, -1, math.Inf(1)
			for _, a := range sorted {
				if !inTree[a] {
					continue
				}
				for _, b := range sorted {
					if inTree[b] {
						continue
					}
					if d := geo.DistanceKm(catalog.City(a).Loc, catalog.City(b).Loc); d < bestKm {
						bestA, bestB, bestKm = a, b, d
					}
				}
			}
			if err := add(bestA, bestB, 0, false); err != nil {
				return nil, err
			}
			inTree[bestB] = true
		}
	}

	// Curated long-haul systems.
	for _, s := range worldCables {
		ca, ok := catalog.ByName(s.a)
		if !ok {
			return nil, fmt.Errorf("cable: unknown city %q in world cable list", s.a)
		}
		cb, ok := catalog.ByName(s.b)
		if !ok {
			return nil, fmt.Errorf("cable: unknown city %q in world cable list", s.b)
		}
		if err := add(ca.ID, cb.ID, s.km, s.submarine); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Connected reports whether every city with at least one incident edge can
// reach every other such city, and separately whether any city is
// completely isolated.
func (g *Graph) Connected() (connected bool, isolated []int) {
	n := g.catalog.Len()
	start := -1
	for c := 0; c < n; c++ {
		if len(g.adj[c]) == 0 {
			isolated = append(isolated, c)
		} else if start < 0 {
			start = c
		}
	}
	if start < 0 {
		return false, isolated
	}
	visited := make([]bool, n)
	stack := []int{start}
	visited[start] = true
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.adj[c] {
			nb := g.edges[eid].Other(c)
			if !visited[nb] {
				visited[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	for c := 0; c < n; c++ {
		if len(g.adj[c]) > 0 && !visited[c] {
			return false, isolated
		}
	}
	return true, isolated
}
