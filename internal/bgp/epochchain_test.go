package bgp_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/delta"
	"beatbgp/internal/matbgp"
	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

// chainFixture is a generated topology, a two-origin announcement set,
// and a seeded flap schedule over links near the origins (so most
// epochs change routes) plus a few random links.
type chainFixture struct {
	topo *topology.Topo
	anns []bgp.Announcement
	seq  *delta.Sequence
}

func newChainFixture(t testing.TB) chainFixture {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{Seed: 17, EyeballsPerRegion: 6})
	if err != nil {
		t.Fatal(err)
	}
	eyeballs := topo.ByClass(topology.Eyeball)
	anns := []bgp.Announcement{{Origin: eyeballs[0]}, {Origin: eyeballs[len(eyeballs)/2]}}
	rng := xrand.New(17)
	var links []int
	for _, a := range anns {
		for _, nb := range topo.Neighbors(a.Origin) {
			links = append(links, nb.Link)
		}
	}
	for i := 0; i < 4; i++ {
		links = append(links, rng.Intn(len(topo.Links)))
	}
	var evs []delta.Event
	for _, l := range links {
		for k := 0; k < 3; k++ {
			evs = append(evs, delta.Event{At: rng.Uniform(-10, 100), Link: l, Down: rng.Bool(0.5)})
		}
	}
	seq, err := delta.Compile(evs, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() < 8 {
		t.Fatalf("%d epochs, want at least 8", seq.Len())
	}
	return chainFixture{topo: topo, anns: anns, seq: seq}
}

// rebuilds returns ComputeWithout at every epoch's cumulative down set.
func (f chainFixture) rebuilds(t testing.TB, c bgp.Computer) []*bgp.RIB {
	t.Helper()
	out := make([]*bgp.RIB, f.seq.Len())
	for e := range out {
		rib, err := c.ComputeWithout(f.anns, f.seq.Epoch(e).DownSet())
		if err != nil {
			t.Fatal(err)
		}
		out[e] = rib
	}
	return out
}

// ribDiff describes the first AS whose best route differs, or "".
func ribDiff(topo *topology.Topo, got, want *bgp.RIB) string {
	for as := 0; as < topo.NumASes(); as++ {
		g, w := got.Best(as), want.Best(as)
		if g.Valid != w.Valid || g.Src != w.Src || g.Link != w.Link || g.NextHop != w.NextHop ||
			fmt.Sprint(g.Path) != fmt.Sprint(w.Path) {
			return fmt.Sprintf("AS %d: chain %+v, rebuild %+v", as, g, w)
		}
	}
	return ""
}

// TestEpochChainMatchesRebuild: forward steps, backward steps (each
// through Delta.Invert), and random jumps all answer exactly like a
// from-scratch rebuild at the epoch's down set, for the rebuild fallback
// (Reference) and the incremental engine (matbgp). Each walk runs on a
// fresh chain, since a revisited epoch is served from the memo.
func TestEpochChainMatchesRebuild(t *testing.T) {
	f := newChainFixture(t)
	eng, err := matbgp.NewEngine(f.topo)
	if err != nil {
		t.Fatal(err)
	}
	n := f.seq.Len()
	var forward, backward, jumps []int
	for e := 0; e < n; e++ {
		forward = append(forward, e)
		backward = append(backward, n-1-e)
	}
	rng := xrand.New(5)
	for i := 0; i < 3*n; i++ {
		jumps = append(jumps, rng.Intn(n))
	}
	for _, comp := range []bgp.Computer{bgp.NewReference(f.topo), eng} {
		want := f.rebuilds(t, comp)
		for name, walk := range map[string][]int{"forward": forward, "backward": backward, "jumps": jumps} {
			ch := bgp.NewEpochChain(comp, f.anns, f.seq)
			for _, e := range walk {
				got, err := ch.RIBAt(context.Background(), e)
				if err != nil {
					t.Fatalf("%T %s: epoch %d: %v", comp, name, e, err)
				}
				if d := ribDiff(f.topo, got, want[e]); d != "" {
					t.Fatalf("%T %s: epoch %d: %s", comp, name, e, d)
				}
				if again, _ := ch.RIBAt(context.Background(), e); again != got {
					t.Fatalf("%T %s: epoch %d not memoized", comp, name, e)
				}
			}
		}
		ch := bgp.NewEpochChain(comp, f.anns, f.seq)
		for _, e := range []int{-1, n} {
			if _, err := ch.RIBAt(context.Background(), e); err == nil {
				t.Fatalf("%T: out-of-range epoch %d accepted", comp, e)
			}
		}
	}
}

// cancellingEngine wraps the incremental engine so the test can cancel
// a chain's context on its k-th repair step, and counts how many
// repairers the chain starts.
type cancellingEngine struct {
	*matbgp.Engine
	cancelAt, steps, starts int
	cancel                  context.CancelFunc
}

func (c *cancellingEngine) StartRepair(anns []bgp.Announcement) (bgp.RouteRepairer, error) {
	c.starts++
	rep, err := c.Engine.StartRepair(anns)
	if err != nil {
		return nil, err
	}
	return cancellingRepairer{rep, c}, nil
}

type cancellingRepairer struct {
	bgp.RouteRepairer
	c *cancellingEngine
}

func (r cancellingRepairer) ApplyContext(ctx context.Context, d delta.Delta) error {
	r.c.steps++
	if r.c.steps == r.c.cancelAt {
		r.c.cancel()
	}
	return bgp.ApplyContext(ctx, r.RouteRepairer, d)
}

// TestEpochChainCancelPoisons: a context cancelled mid-walk fails the
// request with the context's error and poisons the repairer; the next
// request starts a fresh one and answers exactly like a rebuild. A
// request whose context is already done starts nothing.
func TestEpochChainCancelPoisons(t *testing.T) {
	f := newChainFixture(t)
	eng, err := matbgp.NewEngine(f.topo)
	if err != nil {
		t.Fatal(err)
	}
	want := f.rebuilds(t, eng)
	n := f.seq.Len()
	ctx, cancel := context.WithCancel(context.Background())
	wrapped := &cancellingEngine{Engine: eng, cancelAt: 3, cancel: cancel}
	ch := bgp.NewEpochChain(wrapped, f.anns, f.seq)

	if _, err := ch.RIBAt(ctx, n-1); !errors.Is(err, context.Canceled) {
		t.Fatalf("walk cancelled at step 3 returned %v, want context.Canceled", err)
	}
	if _, err := ch.RIBAt(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("request under a done context returned %v, want context.Canceled", err)
	}
	if wrapped.starts != 1 {
		t.Fatalf("%d repairers started before recovery, want 1", wrapped.starts)
	}
	for _, e := range []int{n - 1, 0, n / 2} {
		got, err := ch.RIBAt(context.Background(), e)
		if err != nil {
			t.Fatalf("epoch %d after cancellation: %v", e, err)
		}
		if d := ribDiff(f.topo, got, want[e]); d != "" {
			t.Fatalf("epoch %d after cancellation: %s", e, d)
		}
	}
	if wrapped.starts != 2 {
		t.Fatalf("%d repairers started, want 2 (one rebuild after the poisoned walk)", wrapped.starts)
	}
}

// TestEpochChainConcurrent: many goroutines request mixed epochs of one
// chain at once; every answer matches the rebuild and each epoch is
// materialized once. Run under -race (race-delta, race-serve).
func TestEpochChainConcurrent(t *testing.T) {
	f := newChainFixture(t)
	eng, err := matbgp.NewEngine(f.topo)
	if err != nil {
		t.Fatal(err)
	}
	want := f.rebuilds(t, eng)
	n := f.seq.Len()
	ch := bgp.NewEpochChain(eng, f.anns, f.seq)

	const workers = 8
	const rounds = 16
	type answer struct {
		epoch int
		rib   *bgp.RIB
	}
	answers := make([][]answer, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w) + 1)
			for r := 0; r < rounds; r++ {
				e := rng.Intn(n)
				rib, err := ch.RIBAt(context.Background(), e)
				if err != nil {
					errs <- fmt.Errorf("worker %d epoch %d: %v", w, e, err)
					return
				}
				if d := ribDiff(f.topo, rib, want[e]); d != "" {
					errs <- fmt.Errorf("worker %d epoch %d: %s", w, e, d)
					return
				}
				answers[w] = append(answers[w], answer{e, rib})
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, as := range answers {
		for _, a := range as {
			if memo, _ := ch.RIBAt(context.Background(), a.epoch); memo != a.rib {
				t.Fatalf("epoch %d materialized more than once", a.epoch)
			}
		}
	}
}
