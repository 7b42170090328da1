package cable

import (
	"testing"

	"beatbgp/internal/par"
)

// TestPathConcurrentFromParMap hammers one Network's path memo from
// par.Map workers under -race, through both Path and DistKm: the
// shared-cache hazard the parallel runtime had to fix. Every concurrent
// answer must match a serially warmed oracle bit for bit.
func TestPathConcurrentFromParMap(t *testing.T) {
	g, cat := world(t)
	cities := make([]int, cat.Len())
	for i := range cities {
		cities[i] = i
	}
	n, err := NetworkFromCities(g, "global-backbone", cities, 1.1)
	if err != nil {
		t.Fatal(err)
	}

	// Serial oracle on a twin network with an independent memo.
	oracle, err := NetworkFromCities(g, "oracle", cities, 1.1)
	if err != nil {
		t.Fatal(err)
	}

	// Queries spread across many sources so workers race on cache
	// *insertion*, not just lookup.
	type query struct{ from, to int }
	var queries []query
	for i := 0; i < cat.Len(); i += 3 {
		for j := 1; j < cat.Len(); j += 17 {
			queries = append(queries, query{i, (i + j) % cat.Len()})
		}
	}
	// Odd queries read DistKm, even ones Path, so both read paths race
	// on the same memo.
	answer := func(n *Network, i int, q query) float64 {
		if i%2 == 1 {
			return n.DistKm(q.from, q.to)
		}
		p, ok := n.Path(q.from, q.to)
		if !ok {
			return -1
		}
		return p.Km
	}
	got, err := par.Map(8, queries, func(i int, q query) (float64, error) {
		return answer(n, i, q), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if want := answer(oracle, i, q); got[i] != want {
			t.Fatalf("query %d (%d->%d): concurrent %v != serial %v", i, q.from, q.to, got[i], want)
		}
	}
}
