package cdn

import (
	"context"
	"fmt"

	"beatbgp/internal/bgp"
	"beatbgp/internal/delta"
)

// The epoch layer gives a CDN fault-aware anycast routing without the
// per-query overlay hack: the fault schedule is compiled once into a
// delta.Sequence (faults.Timeline.Deltas or session.History.Deltas), and
// WithEpochs binds it into a view whose AnycastRIBAt carries one
// bgp.EpochChain across the sequence, repairing only what each delta
// touches and memoizing the repaired RIB per epoch.
//
// Bit-identity contract: AnycastRIBAt(e) answers every query exactly
// like ComputeWithout at the epoch's cumulative down set (see
// bgp.EpochChain). A view is a value: its sequence is fixed when it is
// made, so views over different sequences — two frozen worlds sharing
// one built CDN — answer independently.

// WithEpochs returns a view of the CDN bound to the epoch sequence: it
// shares the sites, the route engine and the all-links-up caches with c,
// and owns a fresh anycast repair chain over seq. c is not modified.
func (c *CDN) WithEpochs(seq *delta.Sequence) *CDN {
	v := *c
	v.anycastAt = bgp.NewEpochChain(c.comp, c.Announcements(nil), seq)
	return &v
}

// AnycastRIBAt returns the ungroomed anycast RIB repaired to the given
// epoch of the view's sequence: identical to recomputing from scratch at
// the epoch's cumulative down set, but the repair chain pays only for
// what each delta touches. Safe for concurrent use.
func (c *CDN) AnycastRIBAt(epoch int) (*bgp.RIB, error) {
	return c.AnycastRIBAtContext(context.Background(), epoch)
}

// AnycastRIBAtContext is AnycastRIBAt honoring ctx: a query that
// carries a deadline stops waiting on an in-flight repair (the owner
// finishes and later queries reuse the result) and aborts its own
// repair at epoch-step boundaries.
func (c *CDN) AnycastRIBAtContext(ctx context.Context, epoch int) (*bgp.RIB, error) {
	if c.anycastAt == nil {
		return nil, fmt.Errorf("cdn: no epoch sequence bound (WithEpochs)")
	}
	return c.anycastAt.RIBAt(ctx, epoch)
}
