package serve

// Admission control and the repair-chain circuit breaker: the two
// overload valves of the serving layer. Admission bounds how much work
// enters (a concurrency limit plus a small waiting room, shedding with
// ErrOverload when full or when a queued query's deadline expires);
// the breaker bounds how hard a failing repair chain gets hammered
// (consecutive failures open it, a cooldown probe closes it).

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// admission is the bounded gate in front of query execution. A nil
// *admission admits everything — the unlimited default.
type admission struct {
	sem      chan struct{} // execution slots (cap = MaxInFlight)
	maxQueue int64
	queued   atomic.Int64
}

func newAdmission(maxInFlight, maxQueue int) *admission {
	if maxInFlight <= 0 {
		return nil
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{sem: make(chan struct{}, maxInFlight), maxQueue: int64(maxQueue)}
}

// acquire admits the query (returning the release to defer) or sheds
// it with ErrOverload: immediately when the waiting room is full, or
// while queued when the query's deadline expires first — a query that
// cannot start before its deadline is pure queue poison, so it is
// shed, not started. Shed queries never executed; retrying is safe.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	select {
	case a.sem <- struct{}{}:
		return a.release, nil
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		return nil, fmt.Errorf("%w: %d queries in flight and %d queued", ErrOverload, cap(a.sem), a.maxQueue)
	}
	defer a.queued.Add(-1)
	select {
	case a.sem <- struct{}{}:
		return a.release, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: deadline expired while queued for admission", ErrOverload)
	}
}

func (a *admission) release() { <-a.sem }

// inFlight and waiting report gate occupancy (stress-test hooks).
func (a *admission) inFlight() int {
	if a == nil {
		return 0
	}
	return len(a.sem)
}

func (a *admission) waiting() int {
	if a == nil {
		return 0
	}
	return int(a.queued.Load())
}

// breaker is a consecutive-failure circuit breaker for one repair
// chain. Closed: everything passes. After threshold consecutive
// failures it opens: allow() refuses (callers serve the degraded
// fallback) until cooldown elapses, then exactly one probe per
// cooldown window passes through; a probe success closes the circuit.
// threshold <= 0 disables the breaker entirely.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	fails     int
	openUntil time.Time
}

func newBreaker(o Options) breaker {
	return breaker{threshold: o.BreakerThreshold, cooldown: o.BreakerCooldown}
}

// allow reports whether an attempt may hit the chain right now.
func (b *breaker) allow() bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.threshold {
		return true
	}
	now := time.Now()
	if now.Before(b.openUntil) {
		return false
	}
	// Half-open: admit this caller as the probe and push the window
	// forward so concurrent queries keep falling back while it runs.
	b.openUntil = now.Add(b.cooldown)
	return true
}

func (b *breaker) success() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.fails = 0
	b.mu.Unlock()
}

func (b *breaker) failure() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.fails++
	if b.fails >= b.threshold {
		b.openUntil = time.Now().Add(b.cooldown)
	}
	b.mu.Unlock()
}
