package geo

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	w := World()
	cases := []struct {
		a, b   string
		km     float64
		tolPct float64
	}{
		{"NewYork", "London", 5570, 3},
		{"London", "Paris", 344, 8},
		{"Tokyo", "SanJose", 8400, 3},
		{"Mumbai", "London", 7190, 3},
		{"Sydney", "LosAngeles", 12050, 3},
		{"SaoPaulo", "Miami", 6570, 3},
	}
	for _, c := range cases {
		a, ok := w.ByName(c.a)
		if !ok {
			t.Fatalf("missing city %s", c.a)
		}
		b, ok := w.ByName(c.b)
		if !ok {
			t.Fatalf("missing city %s", c.b)
		}
		d := DistanceKm(a.Loc, b.Loc)
		if math.Abs(d-c.km)/c.km*100 > c.tolPct {
			t.Errorf("%s-%s: got %.0f km, want ~%.0f km", c.a, c.b, d, c.km)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	mk := func(lat, lon float64) Point {
		// Map arbitrary floats onto valid coordinates.
		lat = math.Mod(math.Abs(lat), 180) - 90
		lon = math.Mod(math.Abs(lon), 360) - 180
		return Point{lat, lon}
	}
	symmetric := func(a1, o1, a2, o2 float64) bool {
		p, q := mk(a1, o1), mk(a2, o2)
		d1, d2 := DistanceKm(p, q), DistanceKm(q, p)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
	bounded := func(a1, o1, a2, o2 float64) bool {
		p, q := mk(a1, o1), mk(a2, o2)
		d := DistanceKm(p, q)
		return d >= 0 && d <= math.Pi*EarthRadiusKm+1e-6
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Error(err)
	}
	identity := func(a1, o1 float64) bool {
		p := mk(a1, o1)
		return DistanceKm(p, p) < 1e-9
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Error(err)
	}
}

func TestMinRTTRuleOfThumb(t *testing.T) {
	// The paper: 500 km ≈ as little as 5 ms RTT.
	a := Point{0, 0}
	b := Point{0, 4.4966} // ~500 km along the equator
	rtt := DistanceKm(a, b) * FiberRTTMsPerKm
	if math.Abs(rtt-5) > 0.15 {
		t.Fatalf("500 km RTT = %.3f ms, want ~5 ms", rtt)
	}
}

func TestWorldCatalogIntegrity(t *testing.T) {
	w := World()
	if w.Len() < 120 {
		t.Fatalf("catalog too small: %d cities", w.Len())
	}
	for _, c := range w.All() {
		if c.Loc.Lat < -90 || c.Loc.Lat > 90 || c.Loc.Lon < -180 || c.Loc.Lon > 180 {
			t.Errorf("city %s has invalid coordinates %v", c.Name, c.Loc)
		}
		if c.Pop <= 0 {
			t.Errorf("city %s has non-positive population", c.Name)
		}
		if c.Country == "" {
			t.Errorf("city %s has empty country", c.Name)
		}
		got := w.City(c.ID)
		if got.Name != c.Name {
			t.Errorf("City(%d) = %s, want %s", c.ID, got.Name, c.Name)
		}
	}
	// Every region must be populated for the experiments to cover the globe.
	for _, r := range Regions() {
		if len(w.InRegion(r)) == 0 {
			t.Errorf("region %s has no cities", r)
		}
	}
}

func TestCatalogLookups(t *testing.T) {
	w := World()
	c, ok := w.ByName("Singapore")
	if !ok || c.Country != "SG" || c.Region != Asia {
		t.Fatalf("Singapore lookup wrong: %+v ok=%v", c, ok)
	}
	if _, ok := w.ByName("Atlantis"); ok {
		t.Fatal("nonexistent city should not resolve")
	}
}

func TestNewCatalogRejectsDuplicates(t *testing.T) {
	_, err := NewCatalog([]City{
		{Name: "X", Country: "AA", Pop: 1},
		{Name: "X", Country: "AA", Pop: 1},
	})
	if err == nil {
		t.Fatal("duplicate names should be rejected")
	}
}

func TestNewCatalogRejectsZeroPop(t *testing.T) {
	_, err := NewCatalog([]City{{Name: "X", Country: "AA", Pop: 0}})
	if err == nil {
		t.Fatal("zero population should be rejected")
	}
}

func TestRegionString(t *testing.T) {
	if Asia.String() != "Asia" || NorthAmerica.String() != "NorthAmerica" {
		t.Fatal("region names wrong")
	}
	if Region(99).String() == "" {
		t.Fatal("unknown region should still print")
	}
}

func TestIndiaPresent(t *testing.T) {
	// Figure 5's case study depends on Indian vantage points.
	w := World()
	n := 0
	for _, c := range w.All() {
		if c.Country == "IN" {
			n++
		}
	}
	if n < 3 {
		t.Fatalf("need at least 3 Indian cities, have %d", n)
	}
}

// TestCatalogDistKm: every pair's row distance is bit-equal to
// DistanceKm, on first touch and again once the rows exist, with eight
// goroutines racing to build the same rows first.
func TestCatalogDistKm(t *testing.T) {
	w := World()
	n := w.Len()
	check := func(a int) {
		for b := 0; b < n; b++ {
			want := DistanceKm(w.City(a).Loc, w.City(b).Loc)
			if got := w.DistKm(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("DistKm(%d, %d) = %v, DistanceKm %v", a, b, got, want)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks every row, starting at a different
			// one, so first touches of each row race.
			for i := 0; i < n; i++ {
				check((i + g*n/8) % n)
			}
		}(g)
	}
	wg.Wait()
	for pass := 0; pass < 2; pass++ {
		for a := 0; a < n; a++ {
			check(a)
		}
	}
}
