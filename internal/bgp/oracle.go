package bgp

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"beatbgp/internal/par"
	"beatbgp/internal/topology"
)

// Oracle memoizes per-origin RIBs. Routing depends only on the set of
// announcements, so all prefixes originated (plainly) by the same AS share
// one RIB; with hundreds of prefixes per origin this saves most of the
// propagation work in the experiments.
//
// The memo is guarded: ToOrigin/ToPrefix are safe from any number of
// goroutines, and each RIB is a pure function of its origin, so results
// never depend on interleaving. Hot parallel paths should PrimeOrigins
// first so workers find warm, read-only entries instead of racing to
// duplicate the propagation work.
type Oracle struct {
	comp Computer

	mu    sync.RWMutex
	plain map[int]*RIB
}

// NewOracle returns an oracle whose RIBs come from the given engine.
// Engines are interchangeable by contract (bit-identical outputs), so
// the engine only changes how fast the memo fills, never what it holds.
func NewOracle(comp Computer) *Oracle {
	return &Oracle{comp: comp, plain: make(map[int]*RIB)}
}

// ToOrigin returns the RIB for a plain (ungroomed, single-origin)
// announcement by the AS, computing it on first use.
func (o *Oracle) ToOrigin(origin int) (*RIB, error) {
	o.mu.RLock()
	rib, ok := o.plain[origin]
	o.mu.RUnlock()
	if ok {
		return rib, nil
	}
	// Compute outside the lock: the RIB is a pure function of the origin,
	// so a racing duplicate computation returns an identical value.
	rib, err := o.comp.Compute([]Announcement{{Origin: origin}})
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	if prior, ok := o.plain[origin]; ok {
		rib = prior // keep the first-installed pointer stable
	} else {
		o.plain[origin] = rib
	}
	o.mu.Unlock()
	return rib, nil
}

// ToPrefix returns the RIB governing routes toward the prefix.
func (o *Oracle) ToPrefix(p topology.Prefix) (*RIB, error) {
	return o.ToOrigin(p.Origin)
}

// PrimeOrigins computes the RIBs of every listed origin on a bounded
// worker pool (duplicates are computed once) and installs them in the
// memo, so subsequent ToOrigin calls are read-only lookups. Origins
// already resident are skipped.
//
// Error contract: a real computation failure is returned as-is. When the
// caller's context is cancelled mid-prime, the bare cancellation would
// mask what was going on, so it is annotated — with the first origin that had already failed
// for a real reason if there is one, otherwise with the first origin
// whose RIB never finished.
func (o *Oracle) PrimeOrigins(ctx context.Context, workers int, origins []int) error {
	var missing []int
	seen := make(map[int]bool, len(origins))
	o.mu.RLock()
	for _, origin := range origins {
		if !seen[origin] && o.plain[origin] == nil {
			seen[origin] = true
			missing = append(missing, origin)
		}
	}
	o.mu.RUnlock()
	if len(missing) == 0 {
		return nil
	}
	var failMu sync.Mutex
	failOrigin, failErr := -1, error(nil)
	done := make([]bool, len(missing))
	ribs, err := par.MapCtx(ctx, workers, missing, func(i int, origin int) (*RIB, error) {
		rib, err := o.comp.Compute([]Announcement{{Origin: origin}})
		switch {
		case err == nil:
			done[i] = true
		case !isCtxErr(err):
			failMu.Lock()
			if failErr == nil {
				failOrigin, failErr = origin, err
			}
			failMu.Unlock()
		}
		return rib, err
	})
	if err != nil {
		if isCtxErr(err) {
			// MapCtx has joined every worker, so done/failErr are settled.
			if failErr != nil && !errors.Is(err, failErr) {
				return fmt.Errorf("%w (first failure: origin %d: %v)", err, failOrigin, failErr)
			}
			for i, origin := range missing {
				if !done[i] {
					return fmt.Errorf("%w (first unfinished origin: %d)", err, origin)
				}
			}
		}
		return err
	}
	o.mu.Lock()
	for i, origin := range missing {
		if o.plain[origin] == nil {
			o.plain[origin] = ribs[i]
		}
	}
	o.mu.Unlock()
	return nil
}

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline error rather than a routing-computation failure.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
