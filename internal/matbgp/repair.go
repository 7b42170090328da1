package matbgp

import (
	"context"
	"fmt"
	"sync/atomic"

	"beatbgp/internal/bgp"
	"beatbgp/internal/delta"
	"beatbgp/internal/topology"
)

// Repairer carries one packed column across topology deltas, repairing
// only the routes a delta can actually change instead of rebuilding the
// column. The contract is bit-identity: after any sequence of Apply
// calls, Column() equals Graph.column(anns, current down set) word for
// word — the full rebuild stays the differential reference (see the
// repair unit tests and FuzzDeltaRepair).
//
// A delta splits into a down-step then an up-step, each individually
// exact against the rebuild with its own down set, so the composition is
// exact too (a column is a pure function of the final down set).
//
// Down-step (links removed; every route weakly worsens in the (class,
// length) order): the only ASes whose decision inputs change directly
// are the removed links' endpoints whose settled next hop is the far
// endpoint under the settled relation view (a removed losing candidate
// never flips a decision), plus — by closure over the route tree, whose
// edges are always adjacencies — every AS whose next-hop chain reaches a
// changed AS.
//
// Up-step (links restored; every route weakly improves): a dominance
// BFS from the restored links' endpoints propagates optimistic (class,
// length) bounds under the Gao–Rexford export rules; an AS whose bound
// cannot beat or tie its current word is pruned, a tie marks the AS
// dirty (its tie-break next hop may change) without cascading (its
// exported class/length — all a neighbor sees — is unchanged), and a
// strict improvement marks and keeps propagating. Bounds are weakly
// better than the true post-delta words, so pruning never drops a
// truly-changed AS.
//
// Both steps then re-run the three valley-free phases restricted to the
// dirty set against the frozen boundary (repairSettle), reproducing the
// reference decision order exactly — and iterate: a node's exported
// offer is (receiver-side class, own length + 1), which can move against
// its own lexicographic (class, length) key when a route changes phase
// (a customer route lost to a shorter peer fallback shortens downstream
// offers in a down-step; a longer customer route gained over a short
// peer route lengthens them in an up-step). After each settle pass the
// repaired words are diffed and any frozen neighbor whose decision the
// change could touch — it routes via a changed node, or the changed
// node's new offer beats or ties its word — joins the dirty set for
// another pass, until a pass changes nothing a frozen node can see
// (settleAndCheck). The dirty set only grows, so the loop terminates;
// at the fixpoint every frozen word is provably the rebuild's.
//
// All repair work is proportional to the affected cone's volume (its
// ASes' adjacency lists), never to the graph: frozen state is read
// straight from the packed column, and the per-AS scratch lives in a
// RepairScratch that many Repairers over one Graph can share. A
// Repairer is not safe for concurrent use, and Repairers sharing a
// scratch must not Apply concurrently.
type Repairer struct {
	g        *Graph
	anns     []bgp.Announcement
	suppress map[int32]map[int]bool
	col      []uint32
	down     map[int]bool
	sc       *RepairScratch
}

// RepairScratch is the reusable per-AS workspace of delta repair. Every
// slot is restored to its zero state between uses, so any number of
// Repairers over the same Graph can share one scratch as long as they
// never Apply concurrently — Apply enforces that with the busy flag
// and returns an error instead of corrupting state if two in-flight
// repairs alias one scratch. A failed Apply (path-length capacity,
// which real worlds never approach) poisons the scratch along with its
// Repairer.
type RepairScratch struct {
	// busy marks the scratch as owned by an in-flight Apply; see
	// Repairer.Apply's aliasing guard.
	busy atomic.Bool

	isDirty  []bool
	dirty    []int32
	queue    []int32
	inq      []bool
	boundRel []uint8
	boundLn  []int32
	bset     []bool
	btouched []int32
	oldWords []uint32

	st        *colState
	buckets   [][]cand
	peerCands []cand
}

// NewRepairScratch allocates a workspace for Repairers over this Graph.
func (g *Graph) NewRepairScratch() *RepairScratch {
	n := g.n
	return &RepairScratch{
		isDirty:  make([]bool, n),
		inq:      make([]bool, n),
		boundRel: make([]uint8, n),
		boundLn:  make([]int32, n),
		bset:     make([]bool, n),
		st:       newColState(n),
	}
}

// NewRepairer builds the initial column for the announcement set under
// the given down set (copied) and returns a Repairer positioned there.
// The workspace is allocated lazily on the first dirty repair; use
// WithScratch to share one across many columns.
func (g *Graph) NewRepairer(anns []bgp.Announcement, down map[int]bool) (*Repairer, error) {
	col, err := g.column(anns, down)
	if err != nil {
		return nil, err
	}
	r := &Repairer{g: g, anns: append([]bgp.Announcement(nil), anns...), col: col}
	for _, a := range r.anns {
		if len(a.SuppressLinks) > 0 {
			if r.suppress == nil {
				r.suppress = make(map[int32]map[int]bool)
			}
			r.suppress[int32(a.Origin)] = a.SuppressLinks
		}
	}
	for l, v := range down {
		if v {
			if r.down == nil {
				r.down = make(map[int]bool)
			}
			r.down[l] = true
		}
	}
	return r, nil
}

// WithScratch makes the Repairer use a shared workspace (which must
// come from the same Graph) and returns the Repairer.
func (r *Repairer) WithScratch(sc *RepairScratch) *Repairer {
	r.sc = sc
	return r
}

// Column returns the current packed column. Shared storage: callers must
// not mutate, and the slice is repaired in place by the next Apply.
func (r *Repairer) Column() []uint32 { return r.col }

// Down returns a copy of the current failed-link set, nil when empty.
func (r *Repairer) Down() map[int]bool {
	if len(r.down) == 0 {
		return nil
	}
	out := make(map[int]bool, len(r.down))
	for l := range r.down {
		out[l] = true
	}
	return out
}

// Apply transitions the column across one topology delta. On error the
// Repairer (and its scratch) is poisoned mid-delta and must be
// discarded.
//
// Aliasing guard: a scratch belongs to at most one in-flight Apply.
// Interleaving Applies on different Repairers sharing a scratch is
// fine (each Apply leaves every slot zeroed for the next); overlapping
// them would silently corrupt both columns, so that is detected and
// refused here rather than left to the race detector.
func (r *Repairer) Apply(d delta.Delta) error {
	return r.ApplyContext(context.Background(), d)
}

// ApplyContext is Apply honoring ctx at the two step boundaries (before
// the down-step and between down- and up-step — the column is never
// abandoned mid-step, so a cancelled Apply leaves the same poisoned-
// but-consistent scratch state as any other failed Apply and the
// Repairer must be discarded per the Apply contract).
func (r *Repairer) ApplyContext(ctx context.Context, d delta.Delta) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.ensureScratch()
	if !r.sc.busy.CompareAndSwap(false, true) {
		return fmt.Errorf("matbgp: RepairScratch aliased by a concurrent Apply (one scratch per in-flight repair)")
	}
	defer r.sc.busy.Store(false)
	if err := r.applyDown(d.Down); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.applyUp(d.Up)
}

func (r *Repairer) ensureScratch() {
	if r.sc == nil {
		r.sc = r.g.NewRepairScratch()
	}
}

// curWord returns the in-repair state of an AS: the settle scratch for
// dirty ASes (relNone while unsettled), the frozen column word
// otherwise.
func (r *Repairer) curWord(v int32) (rel uint8, ln int32) {
	if r.sc.isDirty[v] {
		return r.sc.st.rel[v], r.sc.st.ln[v]
	}
	if w := r.col[v]; w != 0 {
		rel, ln, _ := unpackWord(w)
		return rel, ln
	}
	return relNone, 0
}

// viewOfRel maps a settled relation class to the adjacency view the
// route was learned over, mirroring learnedLink.
func viewOfRel(rel uint8) uint8 {
	switch rel {
	case relCustomer:
		return uint8(topology.ViewCustomer)
	case relPeer:
		return uint8(topology.ViewPeer)
	default:
		return uint8(topology.ViewProvider)
	}
}

// mark adds an AS to the dirty set.
func (r *Repairer) mark(v int32) {
	if !r.sc.isDirty[v] {
		r.sc.isDirty[v] = true
		r.sc.dirty = append(r.sc.dirty, v)
	}
}

// applyDown removes links from the topology and repairs the withdraw
// cone: seeds are endpoints whose settled route could have been learned
// over a removed link; the cone closes over route-tree descendants,
// which are always neighbors of their parent (a next hop is learned
// over an adjacency), so the closure scans only the cone's adjacencies.
func (r *Repairer) applyDown(links []int) error {
	g := r.g
	var fresh []int32
	for _, l := range links {
		if r.down[l] {
			continue
		}
		if r.down == nil {
			r.down = make(map[int]bool)
		}
		r.down[l] = true
		if l >= 0 && l < g.nLinks {
			fresh = append(fresh, int32(l))
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	r.ensureScratch()
	sc := r.sc
	seed := func(v, far int32, adj int32) {
		w := r.col[v]
		if w == 0 {
			return
		}
		rel, _, nh := unpackWord(w)
		if rel == relOrigin || nh != far || g.adjView[adj] != viewOfRel(rel) {
			return
		}
		r.mark(v)
	}
	for _, l := range fresh {
		ia, ib := g.linkAdj[2*l], g.linkAdj[2*l+1]
		a, b := g.adjOther[ib], g.adjOther[ia]
		seed(a, b, ia)
		seed(b, a, ib)
	}
	if len(sc.dirty) == 0 {
		return nil
	}
	for qh := 0; qh < len(sc.dirty); qh++ {
		v := sc.dirty[qh]
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			c := g.adjOther[i]
			if sc.isDirty[c] {
				continue
			}
			if w := r.col[c]; w != 0 {
				if rel, _, nh := unpackWord(w); rel != relOrigin && nh == v {
					r.mark(c)
				}
			}
		}
	}
	err := r.settleAndCheck()
	r.resetDirty()
	return err
}

// settleAndCheck runs restricted settle passes over the dirty set until
// a pass produces no word change that any frozen AS could observe (see
// the type comment's fixpoint argument). Each pass snapshots the dirty
// words, settles, then marks frozen neighbors of changed ASes: ASes
// routing via a changed AS must re-decide, and ASes whose word a
// changed AS's new offer beats or ties might switch to it.
func (r *Repairer) settleAndCheck() error {
	g, sc := r.g, r.sc
	for len(sc.dirty) > 0 {
		sc.oldWords = sc.oldWords[:0]
		for _, v := range sc.dirty {
			sc.oldWords = append(sc.oldWords, r.col[v])
		}
		if err := r.repairSettle(); err != nil {
			return err
		}
		nd := len(sc.dirty)
		for idx := 0; idx < nd; idx++ {
			v := sc.dirty[idx]
			if r.col[v] == sc.oldWords[idx] {
				continue
			}
			rel, ln := relNone, int32(0)
			if w := r.col[v]; w != 0 {
				rel, ln, _ = unpackWord(w)
			}
			for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
				w := g.adjOther[i]
				if sc.isDirty[w] {
					continue
				}
				ww := r.col[w]
				wrel, wln := relNone, int32(0)
				if ww != 0 {
					var wnh int32
					wrel, wln, wnh = unpackWord(ww)
					if wrel != relOrigin && wnh == v {
						r.mark(w)
						continue
					}
				}
				// Could v's new offer beat or tie w's word? (v is never
				// an origin, so no suppression on its exports.)
				if rel == relNone || r.down[int(g.adjLink[i])] {
					continue
				}
				var src uint8
				switch g.adjView[i] {
				case uint8(topology.ViewCustomer):
					src = relProvider
				case uint8(topology.ViewProvider):
					if rel > relCustomer {
						continue
					}
					src = relCustomer
				default:
					if rel > relCustomer {
						continue
					}
					src = relPeer
				}
				if keyBetter(src, ln+1, wrel, wln) || (src == wrel && ln+1 == wln) {
					r.mark(w)
				}
			}
		}
		if len(sc.dirty) == nd {
			return nil
		}
	}
	return nil
}

// keyBetter reports whether route key (ra, la) strictly beats (rb, lb)
// in the decision order's first two tiers: relation class, then length.
// relNone (0xFF) orders after every real class, so "unreachable" loses
// to any route.
func keyBetter(ra uint8, la int32, rb uint8, lb int32) bool {
	if ra != rb {
		return ra < rb
	}
	return la < lb
}

// applyUp restores links and repairs the improvement cone found by the
// dominance BFS described on Repairer.
func (r *Repairer) applyUp(links []int) error {
	g := r.g
	var fresh []int32
	for _, l := range links {
		if !r.down[l] {
			continue
		}
		delete(r.down, l)
		if l >= 0 && l < g.nLinks {
			fresh = append(fresh, int32(l))
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	r.ensureScratch()
	sc := r.sc
	// bound returns v's current optimistic (class, length), initializing
	// from the settled word on first touch.
	bound := func(v int32) (uint8, int32) {
		if !sc.bset[v] {
			sc.bset[v] = true
			sc.btouched = append(sc.btouched, v)
			if w := r.col[v]; w != 0 {
				rel, ln, _ := unpackWord(w)
				sc.boundRel[v], sc.boundLn[v] = rel, ln
			} else {
				sc.boundRel[v], sc.boundLn[v] = relNone, 0
			}
		}
		return sc.boundRel[v], sc.boundLn[v]
	}
	// offer delivers an optimistic candidate (src, ln) to w: strict
	// improvement adopts the bound and re-expands, a tie only marks
	// dirty (tie-break next hop may move; exports are unchanged).
	offer := func(w int32, src uint8, ln int32) {
		br, bl := bound(w)
		if keyBetter(src, ln, br, bl) {
			sc.boundRel[w], sc.boundLn[w] = src, ln
			r.mark(w)
			if !sc.inq[w] {
				sc.inq[w] = true
				sc.queue = append(sc.queue, w)
			}
		} else if src == br && ln == bl {
			r.mark(w)
		}
	}
	// relax pushes v's key over its adjacencies under the export rules:
	// customer/origin routes export everywhere, peer/provider routes
	// only to customers. onlyLink restricts to one link (the initial
	// offers across a restored link); -1 means all live adjacencies.
	relax := func(v int32, rel uint8, ln int32, onlyLink int32) {
		if ln >= maxPathLen {
			return // beyond capacity; repairSettle reproduces the error if real
		}
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			l := g.adjLink[i]
			if onlyLink >= 0 && l != onlyLink {
				continue
			}
			if r.down[int(l)] {
				continue
			}
			if rel == relOrigin && r.suppress != nil && r.suppress[v][int(l)] {
				continue
			}
			var src uint8
			switch g.adjView[i] {
			case uint8(topology.ViewCustomer):
				src = relProvider // neighbor sees v as its provider
			case uint8(topology.ViewProvider):
				if rel > relCustomer {
					continue // valley: only customer/origin routes go up
				}
				src = relCustomer
			default:
				if rel > relCustomer {
					continue // only customer/origin routes cross a peering
				}
				src = relPeer
			}
			offer(g.adjOther[i], src, ln+1)
		}
	}
	for _, l := range fresh {
		ia, ib := g.linkAdj[2*l], g.linkAdj[2*l+1]
		a, b := g.adjOther[ib], g.adjOther[ia]
		if w := r.col[a]; w != 0 {
			rel, ln, _ := unpackWord(w)
			relax(a, rel, ln, l)
		}
		if w := r.col[b]; w != 0 {
			rel, ln, _ := unpackWord(w)
			relax(b, rel, ln, l)
		}
	}
	for len(sc.queue) > 0 {
		v := sc.queue[len(sc.queue)-1]
		sc.queue = sc.queue[:len(sc.queue)-1]
		sc.inq[v] = false
		relax(v, sc.boundRel[v], sc.boundLn[v], -1)
	}
	for _, v := range sc.btouched {
		sc.bset[v] = false
	}
	sc.btouched = sc.btouched[:0]
	err := r.settleAndCheck()
	r.resetDirty()
	return err
}

func (r *Repairer) resetDirty() {
	sc := r.sc
	for _, v := range sc.dirty {
		sc.isDirty[v] = false
	}
	sc.dirty = sc.dirty[:0]
	sc.queue = sc.queue[:0]
}

// repairSettle recomputes the dirty ASes' words in place against the
// frozen remainder of the column, running the three valley-free phases
// restricted to the dirty set: frozen ASes are read straight from the
// packed column, boundary offers are gathered by scanning only the
// dirty ASes' adjacencies, and the settle machinery confines decisions
// to the dirty set — total work is O(cone adjacency volume). Because
// the frozen words equal the full rebuild's (the callers' cone
// arguments plus settleAndCheck's fixpoint) and every offer a dirty AS
// would see in the full rebuild is either seeded from the frozen
// boundary or generated when a dirty neighbor settles, the waves here
// settle exactly as the full rebuild's do.
func (r *Repairer) repairSettle() error {
	g, sc := r.g, r.sc
	s, dirty, isDirty := sc.st, sc.dirty, sc.isDirty
	for _, v := range dirty {
		s.rel[v] = relNone
		s.mark[v] = -1
	}
	isDown := func(link int32) bool { return r.down != nil && r.down[int(link)] }
	// suppressedC reports origin-side selective announcement for a
	// pusher already known to hold class rel.
	suppressedC := func(rel uint8, as, link int32) bool {
		if rel != relOrigin || r.suppress == nil {
			return false
		}
		return r.suppress[as][int(link)]
	}

	buckets := sc.buckets
	enqueue := func(c cand) {
		for int(c.ln) >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[c.ln] = append(buckets[c.ln], c)
	}
	// push mirrors column's: offers v's settled route over its
	// adjacencies of the given view. Only dirty ASes may adopt, so
	// offers to frozen ones are dropped here.
	push := func(v int32, view uint8) error {
		nl := s.ln[v] + 1
		if nl > maxPathLen {
			return errPathLen()
		}
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			if g.adjView[i] != view || isDown(g.adjLink[i]) || suppressedC(s.rel[v], v, g.adjLink[i]) {
				continue
			}
			to := g.adjOther[i]
			if !isDirty[to] {
				continue
			}
			enqueue(cand{
				to: to, nh: v, link: g.adjLink[i], asn: g.asn[v], ln: nl,
				dist: g.adjDistIn[i],
			})
		}
		return nil
	}
	settleWaves := func(rel uint8, view uint8) error {
		for wl := 0; wl < len(buckets); wl++ {
			pend := buckets[wl]
			if len(pend) == 0 {
				continue
			}
			s.order = s.order[:0]
			for _, c := range pend {
				if s.rel[c.to] != relNone {
					continue
				}
				if s.mark[c.to] != int32(wl) {
					s.mark[c.to] = int32(wl)
					s.best[c.to] = c
					s.order = append(s.order, c.to)
				} else if candLess(c, s.best[c.to]) {
					s.best[c.to] = c
				}
			}
			for _, to := range s.order {
				c := s.best[to]
				s.rel[to], s.ln[to], s.nh[to] = rel, c.ln, c.nh
				if err := push(to, view); err != nil {
					return err
				}
			}
			buckets[wl] = pend[:0]
		}
		return nil
	}

	// Boundary offers INTO a dirty AS come over the dirty AS's own
	// adjacencies, so each phase seeds by scanning only those. A frozen
	// pusher's offer carries the same (class, length) and receiver-side
	// tie-breaks as in the full rebuild; dirty pushers are handled by
	// settleWaves as they settle.

	// Phase 1 — customer routes flow up: a dirty AS hears from frozen
	// customers holding origin/customer routes.
	for _, v := range dirty {
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			if g.adjView[i] != uint8(topology.ViewCustomer) || isDown(g.adjLink[i]) {
				continue
			}
			u := g.adjOther[i]
			if isDirty[u] {
				continue
			}
			rel, ln := r.curWord(u)
			if rel > relCustomer || suppressedC(rel, u, g.adjLink[i]) {
				continue
			}
			if ln+1 > maxPathLen {
				return errPathLen()
			}
			enqueue(cand{to: v, nh: u, link: g.adjLink[i], asn: g.asn[u], ln: ln + 1, dist: g.adjDist[i]})
		}
	}
	sc.buckets = buckets
	if err := settleWaves(relCustomer, uint8(topology.ViewProvider)); err != nil {
		return err
	}

	// Phase 2 — one peer hop: still-unrouted dirty ASes hear from any
	// neighbor (frozen or just-settled) holding an origin/customer route.
	peerCands := sc.peerCands[:0]
	for _, v := range dirty {
		if s.rel[v] != relNone {
			continue
		}
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			if g.adjView[i] != uint8(topology.ViewPeer) || isDown(g.adjLink[i]) {
				continue
			}
			u := g.adjOther[i]
			rel, ln := r.curWord(u)
			if rel > relCustomer || suppressedC(rel, u, g.adjLink[i]) {
				continue
			}
			if ln+1 > maxPathLen {
				return errPathLen()
			}
			peerCands = append(peerCands, cand{to: v, nh: u, link: g.adjLink[i], asn: g.asn[u], ln: ln + 1, dist: g.adjDist[i]})
		}
	}
	sc.peerCands = peerCands[:0]
	s.order = s.order[:0]
	for _, c := range peerCands {
		if s.rel[c.to] != relNone {
			continue
		}
		if s.mark[c.to] != -2 {
			s.mark[c.to] = -2
			s.best[c.to] = c
			s.order = append(s.order, c.to)
			continue
		}
		b := s.best[c.to]
		if c.ln != b.ln {
			if c.ln < b.ln {
				s.best[c.to] = c
			}
		} else if candLess(c, b) {
			s.best[c.to] = c
		}
	}
	for _, to := range s.order {
		c := s.best[to]
		s.rel[to], s.ln[to], s.nh[to] = relPeer, c.ln, c.nh
	}

	// Phase 3 — provider routes flow down: still-unrouted dirty ASes
	// hear from any routed provider; dirty ASes settled in earlier
	// phases already appear via the scratch, later settlers push
	// in-wave.
	for _, v := range dirty {
		if s.rel[v] != relNone {
			continue
		}
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			if g.adjView[i] != uint8(topology.ViewProvider) || isDown(g.adjLink[i]) {
				continue
			}
			u := g.adjOther[i]
			rel, ln := r.curWord(u)
			if rel == relNone || suppressedC(rel, u, g.adjLink[i]) {
				continue
			}
			if ln+1 > maxPathLen {
				return errPathLen()
			}
			enqueue(cand{to: v, nh: u, link: g.adjLink[i], asn: g.asn[u], ln: ln + 1, dist: g.adjDist[i]})
		}
	}
	sc.buckets = buckets
	if err := settleWaves(relProvider, uint8(topology.ViewCustomer)); err != nil {
		return err
	}

	sc.buckets = buckets
	for _, v := range dirty {
		if s.rel[v] == relNone {
			r.col[v] = 0
		} else {
			r.col[v] = packWord(s.rel[v], s.ln[v], s.nh[v])
		}
	}
	return nil
}

// ribRepairer is the Engine's bgp.RouteRepairer: it carries a Repairer
// for the packed column and materializes the current epoch's RIB on
// demand — paths, links, and RIB query behavior are bit-identical to
// Engine.ComputeWithout at the same down set, because materialization is
// shared and the column is exact by the Repairer's contract.
type ribRepairer struct {
	e          *Engine
	r          *Repairer
	suppressed map[int]map[int]bool
	rib        *bgp.RIB
}

// StartRepair implements bgp.IncrementalComputer. It is safe to call
// concurrently against one Engine: every returned repairer owns a
// private Repairer whose scratch is allocated lazily for it alone, so
// repair chains started in parallel never alias workspace state. (The
// returned RouteRepairer itself is still single-goroutine, per the
// interface contract.)
func (e *Engine) StartRepair(anns []bgp.Announcement) (bgp.RouteRepairer, error) {
	r, err := e.g.NewRepairer(anns, nil)
	if err != nil {
		return nil, err
	}
	var suppressed map[int]map[int]bool
	for _, a := range anns {
		if len(a.SuppressLinks) > 0 {
			if suppressed == nil {
				suppressed = make(map[int]map[int]bool)
			}
			suppressed[a.Origin] = a.SuppressLinks
		}
	}
	return &ribRepairer{e: e, r: r, suppressed: suppressed}, nil
}

// Apply implements bgp.RouteRepairer.
func (s *ribRepairer) Apply(d delta.Delta) error {
	return s.ApplyContext(context.Background(), d)
}

// ApplyContext implements bgp.ContextRepairer: the column repair checks
// ctx at its step boundaries, so a deadline-carrying query can abandon
// a stalled chain instead of riding it to completion.
func (s *ribRepairer) ApplyContext(ctx context.Context, d delta.Delta) error {
	if d.Empty() {
		return nil
	}
	s.rib = nil
	return s.r.ApplyContext(ctx, d)
}

// RIB implements bgp.RouteRepairer. The returned RIB owns a snapshot of
// the down set (the Repairer's mutates on the next Apply) and is
// memoized until then.
func (s *ribRepairer) RIB() (*bgp.RIB, error) {
	if s.rib != nil {
		return s.rib, nil
	}
	down := s.r.Down()
	best, err := s.e.g.materialize(s.r.col, s.r.anns, down)
	if err != nil {
		return nil, err
	}
	s.rib = bgp.NewRIB(s.e.topo, best, down, s.suppressed)
	return s.rib, nil
}
