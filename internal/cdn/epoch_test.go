package cdn

import (
	"fmt"
	"sync"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/delta"
	"beatbgp/internal/topology"
)

// epochSequence builds a 4-epoch schedule flapping two of the first
// site's links: both up, first down, both down, both up again.
func epochSequence(t *testing.T, topo *topology.Topo, c *CDN) *delta.Sequence {
	t.Helper()
	nbs := topo.Neighbors(c.Sites[0].AS.ID)
	if len(nbs) < 2 {
		t.Fatalf("site 0 has %d links, need 2", len(nbs))
	}
	la, lb := nbs[0].Link, nbs[1].Link
	seq, err := delta.Compile([]delta.Event{
		{At: 10, Link: la, Down: true},
		{At: 20, Link: lb, Down: true},
		{At: 30, Link: la, Down: false},
		{At: 30, Link: lb, Down: false},
	}, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != 4 {
		t.Fatalf("%d epochs, want 4", seq.Len())
	}
	return seq
}

// sameRIB compares two RIBs query for query over every AS.
func sameRIB(t *testing.T, topo *topology.Topo, got, want *bgp.RIB, label string) {
	t.Helper()
	for as := 0; as < topo.NumASes(); as++ {
		g, w := got.Best(as), want.Best(as)
		if g.Valid != w.Valid || g.Src != w.Src || g.Link != w.Link || g.NextHop != w.NextHop ||
			len(g.Path) != len(w.Path) {
			t.Fatalf("%s: AS %d repaired %+v != rebuilt %+v", label, as, g, w)
		}
		for i := range g.Path {
			if g.Path[i] != w.Path[i] {
				t.Fatalf("%s: AS %d path %v != %v", label, as, g.Path, w.Path)
			}
		}
	}
}

// TestEpochRIBsBitIdentical: every epoch's repaired anycast RIB must
// equal a from-scratch reference rebuild at that epoch's down set, on one
// CDN per engine — the rebuild fallback (Reference) and the incremental
// engine (matbgp) — visiting epochs out of order so the chain walks both
// directions.
func TestEpochRIBsBitIdentical(t *testing.T) {
	for _, lower := range []func(*topology.Topo) (bgp.Computer, error){lowerReference, lowerMatbgp} {
		topo, c := buildWith(t, 5, lower)
		seq := epochSequence(t, topo, c)
		ref := bgp.NewReference(topo)
		v := c.WithEpochs(seq)
		for _, e := range []int{2, 0, 3, 1, 2} { // forward and backward hops
			anyRIB, err := v.AnycastRIBAt(e)
			if err != nil {
				t.Fatal(err)
			}
			wantAny, err := ref.ComputeWithout(c.Announcements(nil), seq.Epoch(e).DownSet())
			if err != nil {
				t.Fatal(err)
			}
			sameRIB(t, topo, anyRIB, wantAny, "anycast")
		}
		// Revisits are memoized: the same epoch returns the same pointer.
		a, _ := v.AnycastRIBAt(1)
		b, _ := v.AnycastRIBAt(1)
		if a != b {
			t.Fatal("epoch RIB not memoized")
		}
	}
}

// TestEpochInitialDownSet: a sequence whose epoch 0 already has links
// down (events at or before t0) must be honored — epoch 0's delta
// carries the initial down set, and the chain folds it in when the
// repairer is created, so AnycastRIBAt(0) is not the all-up RIB.
func TestEpochInitialDownSet(t *testing.T) {
	topo, c := build(t, 5)
	nbs := topo.Neighbors(c.Sites[0].AS.ID)
	if len(nbs) < 2 {
		t.Fatalf("site 0 has %d links, need 2", len(nbs))
	}
	la := nbs[0].Link
	seq, err := delta.Compile([]delta.Event{
		{At: -5, Link: la, Down: true}, // down before the span opens
		{At: 30, Link: la, Down: false},
	}, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.Epoch(0).DownSet(); !got[la] {
		t.Fatalf("epoch 0 down set %v does not include link %d", got, la)
	}
	v := c.WithEpochs(seq)
	for e := 0; e < seq.Len(); e++ {
		rib, err := v.AnycastRIBAt(e)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.comp.ComputeWithout(c.Announcements(nil), seq.Epoch(e).DownSet())
		if err != nil {
			t.Fatal(err)
		}
		sameRIB(t, topo, rib, want, "initial-down epoch")
	}
}

// TestEpochConcurrentQueries is the epoch-view race regression: two
// views of one CDN, bound to different sequences, are queried at mixed
// epochs from many goroutines. Every answer must match the sequential
// rebuild at its own view's down set — views share the built CDN's
// caches but never each other's epoch state — and concurrent readers at
// different epochs must not deadlock. Run under -race (make race).
func TestEpochConcurrentQueries(t *testing.T) {
	topo, c := build(t, 5)
	seqA := epochSequence(t, topo, c)
	la := topo.Neighbors(c.Sites[0].AS.ID)[0].Link
	seqB, err := delta.Compile([]delta.Event{{At: -1, Link: la, Down: true}}, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	views := []*CDN{c.WithEpochs(seqA), c.WithEpochs(seqB)}
	seqs := []*delta.Sequence{seqA, seqB}

	// Sequential truth, computed before the fan-out.
	anns := c.Announcements(nil)
	want := make([][]*bgp.RIB, len(seqs))
	for i, seq := range seqs {
		for e := 0; e < seq.Len(); e++ {
			rib, err := c.comp.ComputeWithout(anns, seq.Epoch(e).DownSet())
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], rib)
		}
	}
	p := topo.Prefixes[0]

	const workers = 12
	const rounds = 8
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(views)
				e := (w + r) % seqs[i].Len()
				rib, err := views[i].AnycastRIBAt(e)
				if err != nil {
					errs <- fmt.Errorf("view %d AnycastRIBAt(%d): %v", i, e, err)
					return
				}
				if g, wt := rib.Best(p.Origin), want[i][e].Best(p.Origin); g.Link != wt.Link || g.NextHop != wt.NextHop {
					errs <- fmt.Errorf("view %d AnycastRIBAt(%d): best %+v, want %+v", i, e, g, wt)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEpochLayerValidation: a built CDN has no sequence, so its epoch
// queries fail loudly, and binding a view leaves it that way; a view
// rejects out-of-range epochs.
func TestEpochLayerValidation(t *testing.T) {
	topo, c := build(t, 5)
	if _, err := c.AnycastRIBAt(0); err == nil {
		t.Fatal("AnycastRIBAt without a sequence succeeded")
	}
	seq := epochSequence(t, topo, c)
	v := c.WithEpochs(seq)
	if _, err := v.AnycastRIBAt(seq.Len()); err == nil {
		t.Fatal("out-of-range epoch accepted")
	}
	if _, err := v.AnycastRIBAt(-1); err == nil {
		t.Fatal("negative epoch accepted")
	}
	if _, err := v.AnycastRIBAt(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnycastRIBAt(0); err == nil {
		t.Fatal("WithEpochs bound a sequence into the CDN it was taken from")
	}
}
