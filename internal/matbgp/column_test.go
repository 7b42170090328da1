package matbgp

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"beatbgp/internal/bgp"
)

// requireSameColumn fails unless two packed columns are word-identical.
func requireSameColumn(t *testing.T, label string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d words, want %d", label, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			grel, gln, gnh := unpackWord(got[v])
			wrel, wln, wnh := unpackWord(want[v])
			t.Fatalf("%s: AS %d word (rel %d, ln %d, nh %d), want (rel %d, ln %d, nh %d)",
				label, v, grel, gln, gnh, wrel, wln, wnh)
		}
	}
}

// TestColumnArenaHygiene interleaves failing builds — rejected after a
// valid origin was already placed, or mid-propagation with the frontier
// loaded — with good builds of every shape (anycast, prepends,
// selective announcement, failed links) on one Graph, so each build
// takes the pooled state the previous one left. Every good build must
// equal the same build on a freshly lowered Graph.
func TestColumnArenaHygiene(t *testing.T) {
	topo := repairTopo(t, 3)
	g, err := FromTopo(topo)
	if err != nil {
		t.Fatal(err)
	}
	n, nl := topo.NumASes(), len(topo.Links)
	sup := -1 // an origin with more than one link, for selective announcement
	for v := 0; v < n && sup < 0; v++ {
		if len(topo.Neighbors(v)) > 1 {
			sup = v
		}
	}
	if sup < 0 {
		t.Fatal("no multi-homed AS to suppress a link at")
	}
	supLink := topo.Neighbors(sup)[0].Link

	type build struct {
		anns []bgp.Announcement
		down map[int]bool
	}
	good := []build{
		{[]bgp.Announcement{{Origin: 0}}, nil},
		{[]bgp.Announcement{{Origin: n - 1, Prepend: 3}}, map[int]bool{0: true, nl / 2: true}},
		{[]bgp.Announcement{{Origin: 0}, {Origin: n / 2, Prepend: 1}, {Origin: n - 1}}, nil},
		{[]bgp.Announcement{{Origin: sup, SuppressLinks: map[int]bool{supLink: true}}}, map[int]bool{nl - 1: true}},
		{[]bgp.Announcement{{Origin: n / 3}, {Origin: sup, SuppressLinks: map[int]bool{supLink: true}}}, nil},
	}
	bad := []build{
		{[]bgp.Announcement{{Origin: sup, SuppressLinks: map[int]bool{supLink: true}}, {Origin: sup}}, nil}, // duplicate origin
		{[]bgp.Announcement{{Origin: 0}, {Origin: n - 1, Prepend: maxPathLen}}, nil},                        // prepend beyond capacity
		{[]bgp.Announcement{{Origin: n / 2}, {Origin: n}}, map[int]bool{1: true}},                           // out-of-range origin
		{[]bgp.Announcement{{Origin: 0}, {Origin: n - 1, Prepend: maxPathLen - 1}}, nil},                    // path length overflow mid-propagation
	}
	for round := 0; round < 3; round++ {
		for i, gb := range good {
			b := bad[(i+round)%len(bad)]
			if _, err := g.column(b.anns, b.down); err == nil {
				t.Fatalf("round %d: bad build %v succeeded", round, b.anns)
			}
			got, err := g.column(gb.anns, gb.down)
			if err != nil {
				t.Fatalf("round %d good %d: %v", round, i, err)
			}
			fresh, err := FromTopo(topo)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.column(gb.anns, gb.down)
			if err != nil {
				t.Fatalf("round %d good %d on a fresh graph: %v", round, i, err)
			}
			requireSameColumn(t, "after a failed build", got, want)
		}
	}
}

// TestColumnConcurrentDistinct builds distinct columns — different
// origins and failed-link sets — from many goroutines at once on one
// Graph. Each goroutine takes its own pooled state, so every result
// must equal the same build made sequentially. Run under -race to see
// the pool's hand-offs.
func TestColumnConcurrentDistinct(t *testing.T) {
	topo := repairTopo(t, 2)
	g, err := FromTopo(topo)
	if err != nil {
		t.Fatal(err)
	}
	n, nl := topo.NumASes(), len(topo.Links)
	const workers = 12
	type job struct {
		anns []bgp.Announcement
		down map[int]bool
	}
	jobs := make([]job, workers)
	want := make([][]uint32, workers)
	for w := range jobs {
		jobs[w].anns = []bgp.Announcement{{Origin: w * n / workers}}
		if w%2 == 1 {
			jobs[w].down = map[int]bool{w * nl / workers: true}
		}
		if want[w], err = g.column(jobs[w].anns, jobs[w].down); err != nil {
			t.Fatalf("sequential %d: %v", w, err)
		}
	}
	start := make(chan struct{})
	got := make([][][]uint32, workers)
	var wg sync.WaitGroup
	for w := range jobs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for k := 0; k < 20; k++ {
				col, err := g.column(jobs[w].anns, jobs[w].down)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				got[w] = append(got[w], col)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for w := range jobs {
		for _, col := range got[w] {
			requireSameColumn(t, "concurrent build", col, want[w])
		}
	}
}

// TestColumnAllocs is the allocation gate of the column core: on a
// ≈20k-AS graph, a warm build allocates its n-word result and at most
// a constant besides. GC stays off across the measurement because a
// collection empties the Graph's state pool.
func TestColumnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	n, asn, links := synthWorld(10, 100, 20000-110)
	g, err := New(n, asn, links)
	if err != nil {
		t.Fatal(err)
	}
	type build struct {
		anns []bgp.Announcement
		down map[int]bool
	}
	var builds []build
	for k := 0; k < 20; k++ {
		o := k * (n - 1) / 19 // tier-1s, transits and stubs alike
		b := build{anns: []bgp.Announcement{{Origin: o, Prepend: k % 3}}}
		if k%4 == 1 {
			b.down = map[int]bool{k * len(links) / 20: true}
		}
		if k%5 == 2 {
			b.anns = append(b.anns, bgp.Announcement{Origin: 10 + k, SuppressLinks: map[int]bool{0: true}})
		}
		builds = append(builds, b)
	}
	run := func() {
		for _, b := range builds {
			col, err := g.column(b.anns, b.down)
			if err != nil {
				t.Fatal(err)
			}
			benchSink = col[0]
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run() // warm the pool and the frontier's capacity
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	per := (m1.TotalAlloc - m0.TotalAlloc) / uint64(len(builds))
	if limit := uint64(4*n + 64<<10); per > limit {
		t.Fatalf("a warm column build allocated %d B, want at most %d (the %d-word column plus 64 KiB)", per, limit, n)
	}
	t.Logf("%d ASes: %d B allocated per warm build", n, per)
}
