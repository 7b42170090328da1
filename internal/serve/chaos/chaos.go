// Package chaos is the deterministic fault-injection seam of the
// serving path: the serve layer asks an Injector, at two well-defined
// middleware points, whether this query gets extra transport latency
// (QueryDelay, once per query in front of the handler or load target)
// and whether this repair attempt fails or stalls (RepairFault). The
// repair point sits between a repair chain's circuit breaker and the
// chain itself, the same for the anycast chain (-1) and every origin's
// egress chain: each request the breaker lets through draws one attempt
// on (chain, epoch) before the chain is asked for the epoch, whether or
// not the chain already holds it. Nothing here touches routing state —
// chaos perturbs delivery so the overload machinery (deadlines,
// admission, circuit breaker, degraded fallback) is tested against
// misbehavior instead of assumed to handle it.
//
// Determinism: every draw is a pure function of (Seed, site, attempt) —
// query delays are keyed by a global query counter, repair faults by a
// per-(chain, epoch) attempt counter — via xrand.Derive, so a fault
// schedule replays exactly at a fixed seed regardless of goroutine
// interleaving: the n-th repair attempt on a chain's epoch always sees
// the same injected outcome, which is what makes degraded answers
// byte-reproducible across runs.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"beatbgp/internal/xrand"
)

// ErrInjected marks a chaos-injected repair failure; the serving layer
// treats it like any real repair error (it feeds the circuit breaker
// and triggers the degraded fallback).
var ErrInjected = errors.New("chaos: injected repair failure")

// Config tunes the injector. The zero value injects nothing.
type Config struct {
	Seed uint64

	// LatencyP is the per-query probability of injected transport
	// latency; LatencyMeanMs is its exponential mean.
	LatencyP      float64
	LatencyMeanMs float64

	// RepairErrP is the per-attempt probability that a repair-chain
	// materialization fails with ErrInjected.
	RepairErrP float64

	// StallP is the per-attempt probability that a repair-chain
	// materialization stalls for StallMs before proceeding — the
	// slow-epoch scenario that deadline propagation must cut short.
	StallP  float64
	StallMs float64
}

// Validate rejects nonsensical parameters.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"LatencyP", c.LatencyP}, {"RepairErrP", c.RepairErrP}, {"StallP", c.StallP}} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos: %s = %v must be a probability in [0,1]", p.name, p.v)
		}
	}
	for _, m := range []struct {
		name string
		v    float64
	}{{"LatencyMeanMs", c.LatencyMeanMs}, {"StallMs", c.StallMs}} {
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) || m.v < 0 {
			return fmt.Errorf("chaos: %s = %v must be finite and non-negative", m.name, m.v)
		}
	}
	return nil
}

// Injector draws deterministic faults for the serving path. Safe for
// concurrent use.
type Injector struct {
	cfg     Config
	queries atomic.Uint64

	mu       sync.Mutex
	attempts map[attemptKey]uint64
}

type attemptKey struct{ chain, epoch int }

// New returns an injector over the validated config.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg, attempts: make(map[attemptKey]uint64)}, nil
}

// Config returns the injector's configuration.
func (i *Injector) Config() Config { return i.cfg }

// QueryDelay returns the injected transport latency for the next query
// (zero for most). The draw is keyed by the global query ordinal, so a
// fixed seed yields a fixed delay sequence.
func (i *Injector) QueryDelay() time.Duration {
	if i == nil || i.cfg.LatencyP == 0 {
		return 0
	}
	seq := i.queries.Add(1)
	rng := xrand.Derive(i.cfg.Seed, 0x10ad, seq)
	if !rng.Bool(i.cfg.LatencyP) {
		return 0
	}
	return time.Duration(rng.Exp(i.cfg.LatencyMeanMs) * float64(time.Millisecond))
}

// RepairFault draws the fault for the next materialization attempt on
// (chain, epoch): a stall duration to honor before repairing (zero for
// none) and an injected error (nil for none). chain identifies the
// repair chain (an origin ID, or -1 for the anycast chain). Each call
// consumes one attempt on the key, so retries see fresh draws — the
// first attempt may fail while the third succeeds, exactly the
// transient-fault shape circuit breakers exist for.
func (i *Injector) RepairFault(chain, epoch int) (stall time.Duration, err error) {
	if i == nil || (i.cfg.RepairErrP == 0 && i.cfg.StallP == 0) {
		return 0, nil
	}
	k := attemptKey{chain: chain, epoch: epoch}
	i.mu.Lock()
	i.attempts[k]++
	attempt := i.attempts[k]
	i.mu.Unlock()
	rng := xrand.Derive(i.cfg.Seed, 0xfa11, uint64(int64(chain))+1, uint64(int64(epoch))+1, attempt)
	if rng.Bool(i.cfg.StallP) {
		stall = time.Duration(i.cfg.StallMs * float64(time.Millisecond))
	}
	if rng.Bool(i.cfg.RepairErrP) {
		err = fmt.Errorf("%w (chain %d epoch %d attempt %d)", ErrInjected, chain, epoch, attempt)
	}
	return stall, err
}

// Attempts reports how many materialization attempts the injector has
// seen for (chain, epoch) — test hooks use it to prove the breaker
// stopped hammering a failing chain.
func (i *Injector) Attempts(chain, epoch int) uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.attempts[attemptKey{chain: chain, epoch: epoch}]
}

// Sleep blocks for d or until ctx is done, returning ctx's error when
// the context won — the ctx-aware sleep both injection points share.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
