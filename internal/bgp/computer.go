package bgp

import (
	"context"

	"beatbgp/internal/delta"
	"beatbgp/internal/topology"
)

// Computer computes converged routing state for announcement sets.
// Production code runs one implementation, the batch engine of
// internal/matbgp. The recursive reference in this package (Reference,
// Compute/ComputeWithout) is the test oracle it must agree with bit for
// bit — the differential unit and fuzz tests in internal/matbgp and the
// reference-engine render gate in internal/core are the contract. Callers
// that hold a Computer (the oracle, the CDN, the fault studies) are
// engine agnostic: swapping implementations must never change any output.
type Computer interface {
	// Compute returns the converged RIB for the announcement set.
	Compute(anns []Announcement) (*RIB, error)
	// ComputeWithout is Compute with a set of failed links excluded.
	ComputeWithout(anns []Announcement, down map[int]bool) (*RIB, error)
}

// Reference is the Computer backed by the recursive per-prefix
// propagation in this package. It is the differential-testing baseline
// for every other engine; only tests construct it.
type Reference struct{ topo *topology.Topo }

// NewReference returns the reference Computer over the topology.
func NewReference(t *topology.Topo) *Reference { return &Reference{topo: t} }

// Compute implements Computer.
func (r *Reference) Compute(anns []Announcement) (*RIB, error) {
	return Compute(r.topo, anns)
}

// ComputeWithout implements Computer.
func (r *Reference) ComputeWithout(anns []Announcement, down map[int]bool) (*RIB, error) {
	return ComputeWithout(r.topo, anns, down)
}

// RouteRepairer carries converged routing state for one announcement set
// across a sequence of topology deltas. Apply transitions to the next
// epoch; RIB materializes the current epoch's routes. The contract is
// bit-identity with the full rebuild: after any Apply sequence, RIB()
// must equal ComputeWithout(anns, cumulative down set) in every query —
// incremental engines may repair only what changed, but never
// approximately.
//
// Concurrency: one RouteRepairer is a single-goroutine object, but
// distinct repairers over one Computer are independent — StartRepair
// may be called concurrently, and chains started in parallel must not
// share mutable workspace (each owns its repair scratch).
type RouteRepairer interface {
	// Apply folds one topology delta into the carried state.
	Apply(d delta.Delta) error
	// RIB returns the converged RIB at the current epoch.
	RIB() (*RIB, error)
}

// ContextRepairer is implemented by RouteRepairers whose Apply can be
// cancelled between internal repair stages. Cancellation is a delivery
// property, never a semantic one: a completed ApplyContext is
// bit-identical to Apply, and a cancelled one returns the context's
// error with the repairer poisoned exactly like any other failed Apply
// (callers discard it and rebuild — the serving layer's deadline path
// depends on this to abandon a stalled chain without corrupting it).
type ContextRepairer interface {
	RouteRepairer
	// ApplyContext is Apply honoring ctx at safe internal boundaries.
	ApplyContext(ctx context.Context, d delta.Delta) error
}

// ApplyContext folds the delta through the repairer, honoring ctx: a
// context-aware repairer checks it between repair stages, anything else
// gets a single check up front. This is the deadline seam the per-epoch
// chains (internal/cdn, internal/serve) thread queries' contexts
// through.
func ApplyContext(ctx context.Context, rep RouteRepairer, d delta.Delta) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if cr, ok := rep.(ContextRepairer); ok {
		return cr.ApplyContext(ctx, d)
	}
	return rep.Apply(d)
}

// IncrementalComputer is implemented by Computers that can repair routes
// across deltas without a full rebuild (internal/matbgp).
type IncrementalComputer interface {
	Computer
	// StartRepair validates the announcement set, computes the initial
	// (no links down) state, and returns a repairer positioned there.
	StartRepair(anns []Announcement) (RouteRepairer, error)
}

// StartRepair opens a repair session on any Computer: incremental
// engines repair in place, everything else (the recursive reference)
// falls back to a full rebuild per epoch — same results, the repair
// speedup is an engine property, not a semantic one.
func StartRepair(c Computer, anns []Announcement) (RouteRepairer, error) {
	if ic, ok := c.(IncrementalComputer); ok {
		return ic.StartRepair(anns)
	}
	r := &rebuildRepairer{c: c, anns: append([]Announcement(nil), anns...)}
	// Validate the announcement set eagerly, like incremental engines do.
	if _, err := r.RIB(); err != nil {
		return nil, err
	}
	return r, nil
}

// rebuildRepairer is the RouteRepairer fallback for engines without
// incremental repair: it tracks the cumulative down set and rebuilds
// from scratch at each epoch, memoizing the current epoch's RIB.
type rebuildRepairer struct {
	c    Computer
	anns []Announcement
	down map[int]bool
	rib  *RIB
}

func (r *rebuildRepairer) Apply(d delta.Delta) error {
	if !d.Empty() {
		r.down = delta.Apply(r.down, d)
		r.rib = nil
	}
	return nil
}

func (r *rebuildRepairer) RIB() (*RIB, error) {
	if r.rib != nil {
		return r.rib, nil
	}
	var down map[int]bool
	if len(r.down) > 0 {
		down = make(map[int]bool, len(r.down))
		for l := range r.down {
			down[l] = true
		}
	}
	rib, err := r.c.ComputeWithout(r.anns, down)
	if err != nil {
		return nil, err
	}
	r.rib = rib
	return rib, nil
}
