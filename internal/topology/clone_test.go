package topology

import (
	"testing"

	"beatbgp/internal/geo"
)

// TestCloneIndependence: extending a clone must not mutate the original,
// and identical extensions of the clone and the original must produce
// identical results — the property the core build graph's staged
// snapshots rely on.
func TestCloneIndependence(t *testing.T) {
	orig := gen(t, 23)
	nAS, nLinks, nPrefixes := orig.NumASes(), len(orig.Links), len(orig.Prefixes)
	origLinks0 := len(orig.Neighbors(0))

	extend := func(tp *Topo) (asID int, linkID int, p Prefix) {
		ey := tp.ByClass(Eyeball)[0]
		a, err := tp.AddAS(9999, "clone-test", Transit, geo.Europe,
			tp.ASes[ey].Cities, 1.2, EarlyExit)
		if err != nil {
			t.Fatal(err)
		}
		l, err := tp.Connect(ey, a.ID, P2P, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := tp.AddPrefix(ey, tp.ASes[ey].Cities[0], 1)
		if err != nil {
			t.Fatal(err)
		}
		return a.ID, l.ID, pf
	}

	cp := orig.Clone()
	asA, linkA, pA := extend(cp)
	if orig.NumASes() != nAS || len(orig.Links) != nLinks || len(orig.Prefixes) != nPrefixes {
		t.Fatal("extending the clone mutated the original's tables")
	}
	if len(orig.Neighbors(0)) != origLinks0 {
		t.Fatal("extending the clone mutated the original's adjacency lists")
	}

	// Clone-then-extend must equal extend-in-place: same IDs, same prefix.
	asB, linkB, pB := extend(orig)
	if asA != asB || linkA != linkB || pA != pB {
		t.Fatalf("clone and original diverged under identical extensions: (%d,%d,%v) vs (%d,%d,%v)",
			asA, linkA, pA, asB, linkB, pB)
	}
}
