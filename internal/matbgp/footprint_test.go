package matbgp

import (
	"runtime"
	"runtime/debug"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/delta"
)

// footprintWorld is the generated world at serve_churn's scale
// (-eyeballs 150, 1,115 ASes) with its engine, plus a what-if-shaped
// workload over it: single-origin announcements, each with a delta
// taking down two links.
func footprintWorld(t *testing.T) (*Engine, int, [][]bgp.Announcement, []delta.Delta) {
	t.Helper()
	topo := genTopo(t, 42, 150)
	eng, err := NewEngine(topo)
	if err != nil {
		t.Fatal(err)
	}
	n, nl := topo.NumASes(), len(topo.Links)
	var anns [][]bgp.Announcement
	var ds []delta.Delta
	for k := 0; k < 16; k++ {
		anns = append(anns, []bgp.Announcement{{Origin: (k*7919 + 13) % n}})
		ds = append(ds, delta.Delta{Down: []int{(k * 104729) % nl, (k*31 + 5) % nl}})
	}
	return eng, n, anns, ds
}

// TestRIBRetainedBytes: a repaired epoch's RIB is its hop table — 12
// bytes per AS — plus a constant, not materialized paths.
func TestRIBRetainedBytes(t *testing.T) {
	eng, n, anns, ds := footprintWorld(t)
	reps := make([]bgp.RouteRepairer, len(anns))
	for i := range anns {
		rep, err := eng.StartRepair(anns[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Apply(ds[i]); err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	ribs := make([]*bgp.RIB, len(reps))
	var m0, m1 runtime.MemStats
	runtime.GC() // twice: the second frees what the first left in sync.Pool victim caches
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i, rep := range reps {
		rib, err := rep.RIB()
		if err != nil {
			t.Fatal(err)
		}
		ribs[i] = rib
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(reps)
	runtime.KeepAlive(ribs)
	per := (int64(m1.HeapAlloc) - int64(m0.HeapAlloc)) / int64(len(ribs))
	if limit := int64(16*n + 1024); per > limit {
		t.Fatalf("a repaired RIB retains %d B, want at most %d (16 B per AS plus 1 KiB at %d ASes)", per, limit, n)
	}
	t.Logf("%d ASes: a repaired RIB retains %d B", n, per)
}

// TestRepairScratchPooled: repair chains that bring no scratch of their
// own borrow the Graph's pooled one for each Apply, so once the pool is
// warm a what-if-shaped StartRepair+Apply+RIB allocates fewer bytes than
// one RepairScratch holds. GC stays off across the measurement because
// a collection empties the pool, and one P runs it because a pooled
// object put on one P is invisible to a Get on another.
func TestRepairScratchPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	eng, n, anns, ds := footprintWorld(t)
	whatIf := func(i int) {
		rep, err := eng.StartRepair(anns[i%len(anns)])
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Apply(ds[i%len(ds)]); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.RIB(); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	benchScratch = eng.Graph().NewRepairScratch()
	runtime.ReadMemStats(&m1)
	scratch := m1.TotalAlloc - m0.TotalAlloc
	for i := range anns {
		whatIf(i) // warm the pools
	}
	for i := 0; i < 100; i++ {
		runtime.ReadMemStats(&m0)
		whatIf(i)
		runtime.ReadMemStats(&m1)
		if b := m1.TotalAlloc - m0.TotalAlloc; b >= scratch {
			t.Fatalf("what-if %d allocated %d B, at least one %d-B RepairScratch (%d ASes)", i, b, scratch, n)
		}
	}
}

// benchScratch keeps the measured scratch allocation observable.
var benchScratch *RepairScratch
