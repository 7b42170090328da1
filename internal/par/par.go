// Package par is the deterministic parallel execution runtime: a bounded
// worker pool plus generic sharded fan-out with ordered, index-based
// merge, so that sharding work across cores never changes what the work
// computes.
//
// # The determinism contract
//
// Every combinator in this package returns results in INPUT order, not
// completion order, and cancels-and-drains on the first failure. A caller
// that (a) makes each item's computation a pure function of the item and
// its index — random draws keyed by the item, never by the worker or the
// wall clock — and (b) folds the returned slice serially, gets
// byte-identical output at any worker count, including 1. Per-worker
// state (see MapState) exists for goroutine-confined caches whose VALUES
// are pure functions of their keys (netsim.Sim's sampling state,
// cable.Network's path memo): which worker computes an item may vary run
// to run, but what it computes may not.
//
// Random streams for sharded work must be split per item index, not per
// worker: use xrand.Derive(seed, uint64(i), ...) so draws are a function
// of the shard, not of scheduling.
//
// # Failure semantics
//
// A panic inside a worker is captured with its stack and surfaced as a
// *PanicError; it does not crash the process. When several items fail
// (error or panic), the error of the LOWEST item index is returned — the
// same error a serial loop would have hit first — so error output is as
// deterministic as success output. Context cancellation stops dispatch;
// in-flight items finish and their results are discarded.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n > 0 is honored as given,
// n <= 0 selects GOMAXPROCS. The result is always at least 1.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	if p := runtime.GOMAXPROCS(0); p > 0 {
		return p
	}
	return 1
}

// PanicError is a worker panic captured by the pool: the recovered value
// and the goroutine stack at the point of the panic.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: worker panicked: %v\n%s", e.Value, e.Stack)
}

// Map applies fn to every item on a bounded worker pool and returns the
// results in input order. See MapCtx for semantics.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return MapCtx(context.Background(), workers, items, fn)
}

// MapCtx is Map honoring context cancellation: dispatch stops once the
// context is done and the context's error is returned. On an item error
// (or captured panic) the pool stops dispatching, drains in-flight work,
// and returns the failing error of the lowest item index; the partial
// result slice is discarded (nil).
func MapCtx[T, R any](ctx context.Context, workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return MapStateCtx(ctx, workers, items,
		func(int) struct{} { return struct{}{} },
		func(_ struct{}, i int, item T) (R, error) { return fn(i, item) })
}

// MapState is MapCtx with a per-worker state factory and a background
// context. newState runs once per spawned worker, in the worker's
// goroutine, before it processes its first item.
func MapState[S, T, R any](workers int, items []T, newState func(worker int) S, fn func(st S, i int, item T) (R, error)) ([]R, error) {
	return MapStateCtx(context.Background(), workers, items, newState, fn)
}

// MapStateCtx applies fn to every item on a bounded pool of `workers`
// goroutines, each carrying private state built by newState, and returns
// the results in input order.
//
// State is for goroutine-confined caches only: item assignment to workers
// is scheduling-dependent, so fn must compute the same result for a given
// (i, item) regardless of which state instance it runs against.
func MapStateCtx[S, T, R any](ctx context.Context, workers int, items []T, newState func(worker int) S, fn func(st S, i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	if n == 0 {
		return nil, ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	results := make([]R, n)

	var (
		next     atomic.Int64 // dispatch cursor
		stop     atomic.Bool  // set on first failure or cancellation
		mu       sync.Mutex
		firstErr error
		errIdx   = n + 1 // index of the lowest failing item
	)
	fail := func(i int, err error) {
		stop.Store(true)
		mu.Lock()
		if i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for worker := 0; worker < w; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// A panicking newState poisons only items this worker would
			// have taken; runItem's recover shape keeps the pool alive.
			var st S
			if err := capture(func() { st = newState(worker) }); err != nil {
				// Attribute the state failure to the next undispatched
				// item so the reported index is as low as possible; a
				// state failure always surfaces (index <= n) even when
				// the other workers have already drained every item.
				i := int(next.Load())
				if i > n {
					i = n
				}
				fail(i, err)
				return
			}
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(i, err)
					return
				}
				var r R
				var ferr error
				if perr := capture(func() { r, ferr = fn(st, i, items[i]) }); perr != nil {
					ferr = perr
				}
				if ferr != nil {
					fail(i, fmt.Errorf("par: item %d: %w", i, ferr))
					return
				}
				results[i] = r
			}
		}(worker)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		// Cancelled after the last item was dispatched but before any
		// worker observed it: still report the cancellation.
		return nil, err
	}
	return results, nil
}

// capture runs f, converting a panic into a *PanicError.
func capture(f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Value: p, Stack: buf}
		}
	}()
	f()
	return nil
}
