package bgp

import (
	"context"
	"fmt"
	"sync"

	"beatbgp/internal/delta"
)

// EpochChain carries one announcement set's routing state across a
// compiled epoch sequence (internal/delta): a single RouteRepairer walked
// forward by each epoch's delta or backward by its inversion — exact,
// because every epoch's delta is normalized against its predecessor — so
// the chain pays only for what each step touches. RIBAt(e) answers every
// query exactly like ComputeWithout(anns, seq.Epoch(e).DownSet()); repair
// is an engine property, never a semantic one (see RouteRepairer).
//
// Concurrency: RIBAt is safe from any number of goroutines. Each epoch's
// RIB is materialized once behind a future: the first requester repairs
// while holding only the walk lock, duplicates wait on the future (or
// their context), and readers of already-materialized epochs never block
// behind an in-flight repair. A failed or cancelled step poisons the
// repairer, so it is dropped and the next request rebuilds it from
// scratch; the failed epoch is forgotten, never cached as an error.
type EpochChain struct {
	comp Computer
	anns []Announcement
	seq  *delta.Sequence

	mu   sync.Mutex // guards ribs; never held during a repair
	ribs map[int]*ribFuture

	walk sync.Mutex // serializes repairer creation and advancement
	rep  RouteRepairer
	at   int
}

// ribFuture is one epoch's materializing RIB: the first requester
// computes and closes done; duplicates block on done and share the
// result.
type ribFuture struct {
	done chan struct{}
	rib  *RIB
	err  error
}

// NewEpochChain returns a chain for the announcement set over the
// sequence. Nothing is computed until the first RIBAt.
func NewEpochChain(c Computer, anns []Announcement, seq *delta.Sequence) *EpochChain {
	return &EpochChain{
		comp: c,
		anns: append([]Announcement(nil), anns...),
		seq:  seq,
		ribs: make(map[int]*ribFuture),
	}
}

// RIBAt returns the RIB at epoch e of the sequence. ctx bounds this
// caller only: a duplicate stops waiting when its context expires (the
// owner finishes and later callers reuse the result), and an owner's
// context is threaded down to the engine's repair-stage boundaries.
func (ch *EpochChain) RIBAt(ctx context.Context, e int) (*RIB, error) {
	if e < 0 || e >= ch.seq.Len() {
		return nil, fmt.Errorf("bgp: epoch %d out of range [0,%d)", e, ch.seq.Len())
	}
	ch.mu.Lock()
	if f, ok := ch.ribs[e]; ok {
		ch.mu.Unlock()
		select {
		case <-f.done:
			return f.rib, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &ribFuture{done: make(chan struct{})}
	ch.ribs[e] = f
	ch.mu.Unlock()

	f.rib, f.err = ch.advance(ctx, e)
	if f.err != nil {
		ch.mu.Lock()
		delete(ch.ribs, e)
		ch.mu.Unlock()
	}
	close(f.done)
	return f.rib, f.err
}

// advance walks the repairer to epoch e, creating it on first use —
// StartRepair's all-links-up state folded forward by epoch 0's delta,
// which carries the sequence's initial down set.
func (ch *EpochChain) advance(ctx context.Context, e int) (*RIB, error) {
	ch.walk.Lock()
	defer ch.walk.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ch.rep == nil {
		rep, err := StartRepair(ch.comp, ch.anns)
		if err != nil {
			return nil, err
		}
		if err := ApplyContext(ctx, rep, ch.seq.Epoch(0).Delta); err != nil {
			return nil, err
		}
		ch.rep, ch.at = rep, 0
	}
	for ch.at != e {
		var err error
		if ch.at < e {
			err = ApplyContext(ctx, ch.rep, ch.seq.Epoch(ch.at+1).Delta)
			ch.at++
		} else {
			err = ApplyContext(ctx, ch.rep, ch.seq.Epoch(ch.at).Delta.Invert())
			ch.at--
		}
		if err != nil {
			ch.rep = nil
			return nil, err
		}
	}
	return ch.rep.RIB()
}
