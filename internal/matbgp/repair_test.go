package matbgp

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/delta"
	"beatbgp/internal/topology"
)

func repairTopo(t testing.TB, seed uint64) *topology.Topo {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{
		Seed: seed, Tier1Count: 3, TransitsPerRegion: 2, EyeballsPerRegion: 4,
	})
	if err != nil {
		t.Fatalf("generate seed %d: %v", seed, err)
	}
	return topo
}

// checkColumn compares the repairer's column and down set against a
// fresh rebuild at the same cumulative down set.
func checkColumn(t *testing.T, g *Graph, r *Repairer, anns []bgp.Announcement, down map[int]bool, step int) {
	t.Helper()
	want, err := g.column(anns, down)
	if err != nil {
		t.Fatalf("step %d: rebuild: %v", step, err)
	}
	got := r.Column()
	for v := range want {
		if got[v] != want[v] {
			grel, gln, gnh := unpackWord(got[v])
			wrel, wln, wnh := unpackWord(want[v])
			t.Fatalf("step %d: AS %d word diverged: repair (rel %d, ln %d, nh %d) rebuild (rel %d, ln %d, nh %d)",
				step, v, grel, gln, gnh, wrel, wln, wnh)
		}
	}
	rdown := r.Down()
	if len(rdown) != len(down) {
		t.Fatalf("step %d: down set drifted: repair %v vs %v", step, rdown, down)
	}
	for l := range down {
		if !rdown[l] {
			t.Fatalf("step %d: down set drifted: repair %v vs %v", step, rdown, down)
		}
	}
}

// TestRepairMatchesRebuildRandomDeltas drives Repairers through long
// random delta walks — mixed down/up sets, repeated flaps, already-down
// no-ops — over several small worlds and announcement shapes, comparing
// against a fresh rebuild after every delta. This is the tentpole's
// differential contract in unit-test form (FuzzDeltaRepair widens it).
func TestRepairMatchesRebuildRandomDeltas(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		topo := repairTopo(t, seed)
		g, err := FromTopo(topo)
		if err != nil {
			t.Fatal(err)
		}
		n, nl := topo.NumASes(), len(topo.Links)
		annSets := [][]bgp.Announcement{
			{{Origin: 0}},
			{{Origin: n - 1}},
			{{Origin: 0}, {Origin: n / 2}, {Origin: n - 1}}, // anycast
			{{Origin: n / 3, Prepend: 2}},
		}
		// Selective announcement at an origin with >1 link, suppressing
		// its first link.
		for v := 0; v < n; v++ {
			if nbs := topo.Neighbors(v); len(nbs) > 1 {
				annSets = append(annSets, []bgp.Announcement{
					{Origin: v, SuppressLinks: map[int]bool{nbs[0].Link: true}},
				})
				break
			}
		}
		rng := rand.New(rand.NewSource(int64(seed) * 7919))
		for ai, anns := range annSets {
			r, err := g.NewRepairer(anns, nil)
			if err != nil {
				t.Fatalf("seed %d anns %d: %v", seed, ai, err)
			}
			down := map[int]bool{}
			for step := 0; step < 60; step++ {
				var d delta.Delta
				for k := rng.Intn(3); k > 0; k-- {
					d.Down = append(d.Down, rng.Intn(nl)) // may already be down
				}
				for k := rng.Intn(3); k > 0; k-- {
					d.Up = append(d.Up, rng.Intn(nl)) // may already be up
				}
				for _, l := range d.Down {
					down[l] = true
				}
				for _, l := range d.Up {
					delete(down, l)
				}
				if err := r.Apply(d); err != nil {
					t.Fatalf("seed %d anns %d step %d: %v", seed, ai, step, err)
				}
				cmp := map[int]bool{}
				for l := range down {
					cmp[l] = true
				}
				if len(cmp) == 0 {
					cmp = nil
				}
				checkColumn(t, g, r, anns, cmp, step)
			}
		}
	}
}

// TestRepairStartsFromDownState covers NewRepairer seeded with a
// non-empty down set, then repairing both directions from there.
func TestRepairStartsFromDownState(t *testing.T) {
	topo := repairTopo(t, 1)
	g, err := FromTopo(topo)
	if err != nil {
		t.Fatal(err)
	}
	anns := []bgp.Announcement{{Origin: 0}}
	down := map[int]bool{0: true, 3: true}
	r, err := g.NewRepairer(anns, down)
	if err != nil {
		t.Fatal(err)
	}
	checkColumn(t, g, r, anns, down, -1)
	if err := r.Apply(delta.Delta{Up: []int{0}, Down: []int{5}}); err != nil {
		t.Fatal(err)
	}
	checkColumn(t, g, r, anns, map[int]bool{3: true, 5: true}, 0)
	// The caller's seed map must not have been aliased.
	if !down[0] || down[5] {
		t.Fatalf("seed down map mutated: %v", down)
	}
}

// TestRepairIgnoresUnknownLinks: deltas naming out-of-range link IDs
// must be tolerated exactly like the rebuild's down map tolerates them.
func TestRepairIgnoresUnknownLinks(t *testing.T) {
	topo := repairTopo(t, 2)
	g, err := FromTopo(topo)
	if err != nil {
		t.Fatal(err)
	}
	anns := []bgp.Announcement{{Origin: 1}}
	r, err := g.NewRepairer(anns, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(delta.Delta{Down: []int{len(topo.Links) + 50, -3, 1}}); err != nil {
		t.Fatal(err)
	}
	checkColumn(t, g, r, anns, map[int]bool{len(topo.Links) + 50: true, -3: true, 1: true}, 0)
}

// TestRibRepairerMatchesComputeWithout walks the Engine's RouteRepairer
// through a delta sequence and requires every epoch's RIB to match
// Engine.ComputeWithout — best routes and offers per AS — and the
// reference engine's rebuild fallback to match both.
func TestRibRepairerMatchesComputeWithout(t *testing.T) {
	topo := repairTopo(t, 3)
	eng, err := NewEngine(topo)
	if err != nil {
		t.Fatal(err)
	}
	ref := bgp.NewReference(topo)
	anns := []bgp.Announcement{{Origin: 0}, {Origin: topo.NumASes() / 2}}
	inc, err := bgp.StartRepair(eng, anns)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := inc.(bgp.RouteRepairer); !ok {
		t.Fatal("engine repairer does not satisfy RouteRepairer")
	}
	fb, err := bgp.StartRepair(ref, anns)
	if err != nil {
		t.Fatal(err)
	}
	deltas := []delta.Delta{
		{},
		{Down: []int{0, 2}},
		{Down: []int{7}, Up: []int{2}},
		{Up: []int{0, 7}},
	}
	down := map[int]bool{}
	for step, d := range deltas {
		if err := inc.Apply(d); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := fb.Apply(d); err != nil {
			t.Fatalf("step %d fallback: %v", step, err)
		}
		down = delta.Apply(down, d)
		cmp := map[int]bool{}
		for l := range down {
			cmp[l] = true
		}
		if len(cmp) == 0 {
			cmp = nil
		}
		want, err := eng.ComputeWithout(anns, cmp)
		if err != nil {
			t.Fatalf("step %d rebuild: %v", step, err)
		}
		got, err := inc.RIB()
		if err != nil {
			t.Fatalf("step %d RIB: %v", step, err)
		}
		fbGot, err := fb.RIB()
		if err != nil {
			t.Fatalf("step %d fallback RIB: %v", step, err)
		}
		for as := 0; as < topo.NumASes(); as++ {
			if wb, gb := want.Best(as), got.Best(as); !reflect.DeepEqual(wb, gb) {
				t.Fatalf("step %d AS %d best diverged:\n rebuild %+v\n repair  %+v", step, as, wb, gb)
			}
			if ow, og := want.OffersTo(as), got.OffersTo(as); !reflect.DeepEqual(ow, og) {
				t.Fatalf("step %d AS %d offers diverged", step, as)
			}
			if wb, gb := want.Best(as), fbGot.Best(as); !reflect.DeepEqual(wb, gb) {
				t.Fatalf("step %d AS %d fallback best diverged:\n rebuild %+v\n fallback %+v", step, as, wb, gb)
			}
		}
		// The memoized RIB must be stable until the next Apply.
		again, err := inc.RIB()
		if err != nil || again != got {
			t.Fatalf("step %d: RIB memo not stable (%v)", step, err)
		}
	}
}

// TestStartRepairValidatesAnnouncements: both the incremental and the
// fallback paths must reject invalid announcement sets with the
// reference error text, at StartRepair time.
func TestStartRepairValidatesAnnouncements(t *testing.T) {
	topo := repairTopo(t, 4)
	eng, err := NewEngine(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []bgp.Computer{eng, bgp.NewReference(topo)} {
		if _, err := bgp.StartRepair(c, nil); err == nil || err.Error() != "bgp: no announcements" {
			t.Fatalf("%T: want \"bgp: no announcements\", got %v", c, err)
		}
		dup := []bgp.Announcement{{Origin: 1}, {Origin: 1}}
		if _, err := bgp.StartRepair(c, dup); err == nil || err.Error() != "bgp: duplicate origin 1" {
			t.Fatalf("%T: want duplicate-origin error, got %v", c, err)
		}
	}
}

// FuzzDeltaRepair is the tentpole's fuzz contract: fuzzer-chosen
// announcement sets and delta programs over small worlds, with the
// repaired column compared word-for-word against a fresh rebuild after
// every delta. Run via `make fuzz-delta`.
func FuzzDeltaRepair(f *testing.F) {
	const nseeds = 4
	worlds := make([]*fuzzWorld, nseeds)
	for i := range worlds {
		worlds[i] = fuzzWorldFor(f, uint64(i+1))
	}
	f.Add(uint64(1), []byte{0, 1, 2, 3})
	f.Add(uint64(2), []byte{2, 9, 200, 0, 0, 7, 255, 1})
	f.Add(uint64(3), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint64(4), []byte{40, 30, 20, 10, 0, 10, 20, 30, 40})
	f.Fuzz(func(t *testing.T, pick uint64, program []byte) {
		w := worlds[pick%nseeds]
		g := w.eng.g
		topo := w.topo
		n, nl := topo.NumASes(), len(topo.Links)
		i := 0
		byteAt := func() int {
			if i >= len(program) {
				return 0
			}
			b := int(program[i])
			i++
			return b
		}
		var anns []bgp.Announcement
		for k := 1 + byteAt()%3; k > 0; k-- {
			anns = append(anns, bgp.Announcement{Origin: byteAt() % n})
		}
		r, err := g.NewRepairer(anns, nil)
		if err != nil {
			// Invalid set (duplicate origin): the rebuild must agree.
			if _, rerr := g.column(anns, nil); rerr == nil || rerr.Error() != err.Error() {
				t.Fatalf("error divergence: repairer %v, rebuild %v", err, rerr)
			}
			return
		}
		down := map[int]bool{}
		for step := 0; i < len(program) && step < 32; step++ {
			var d delta.Delta
			for k := byteAt() % 3; k > 0; k-- {
				d.Down = append(d.Down, byteAt()%nl)
			}
			for k := byteAt() % 3; k > 0; k-- {
				d.Up = append(d.Up, byteAt()%nl)
			}
			for _, l := range d.Down {
				down[l] = true
			}
			for _, l := range d.Up {
				delete(down, l)
			}
			if err := r.Apply(d); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			cmp := map[int]bool{}
			for l := range down {
				cmp[l] = true
			}
			if len(cmp) == 0 {
				cmp = nil
			}
			want, err := g.column(anns, cmp)
			if err != nil {
				t.Fatalf("step %d rebuild: %v", step, err)
			}
			got := r.Column()
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("step %d AS %d: repair %#x rebuild %#x (delta %v, down %v)",
						step, v, got[v], want[v], d, down)
				}
			}
		}
	})
}

// TestRibRepairerParallelLinks: flapping parallel links under a fixed
// next hop changes an AS's learned link without changing any column
// word, so the hop table must re-decide it — every epoch of every
// origin's repair chain equals the reference rebuild.
func TestRibRepairerParallelLinks(t *testing.T) {
	topo, addAS, connect := handTopo(t)
	t1 := addAS(100, []string{"London", "Paris", "NewYork"})
	tr1 := addAS(200, []string{"London", "Paris", "Amsterdam"})
	tr2 := addAS(201, []string{"Frankfurt", "London", "Vienna"})
	s1 := addAS(300, []string{"London", "Amsterdam", "Vienna"})
	s2 := addAS(301, []string{"Paris", "Vienna"})
	connect(tr1, t1, topology.C2P) // link 0
	connect(tr1, t1, topology.C2P) // link 1, parallel to 0
	connect(tr2, t1, topology.C2P) // link 2
	connect(s1, tr1, topology.C2P) // link 3
	connect(s1, tr1, topology.C2P) // link 4, parallel to 3
	connect(s1, tr2, topology.C2P) // link 5
	connect(s2, tr2, topology.C2P) // link 6
	connect(s2, tr1, topology.P2P) // link 7
	eng, err := NewEngine(topo)
	if err != nil {
		t.Fatal(err)
	}
	ref := bgp.NewReference(topo)
	walk := []delta.Delta{
		{Down: []int{0}},
		{Down: []int{3}, Up: []int{0}},
		{Down: []int{1, 4}, Up: []int{3}},
		{Up: []int{1}},
		{Down: []int{0, 5}, Up: []int{4}},
		{Up: []int{0, 5}},
	}
	for origin := 0; origin < topo.NumASes(); origin++ {
		anns := []bgp.Announcement{{Origin: origin}}
		rep, err := eng.StartRepair(anns)
		if err != nil {
			t.Fatal(err)
		}
		down := map[int]bool{}
		for step, d := range walk {
			if err := rep.Apply(d); err != nil {
				t.Fatalf("origin %d step %d: %v", origin, step, err)
			}
			down = delta.Apply(down, d)
			var cmp map[int]bool
			if len(down) > 0 {
				cmp = map[int]bool{}
				for l := range down {
					cmp[l] = true
				}
			}
			want, err := ref.ComputeWithout(anns, cmp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.RIB()
			if err != nil {
				t.Fatal(err)
			}
			requireSameRIB(t, topo, want, got, fmt.Sprintf("origin %d step %d", origin, step))
		}
	}
}
