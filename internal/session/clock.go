package session

// clock is the discrete-event scheduler driving one link's replay: a
// binary min-heap of event values ordered by (time, insertion sequence).
// The sequence tiebreak makes same-instant events fire in the order they
// were scheduled, so a replay is a pure function of its inputs — no map
// iteration, no goroutines, no wall clock — which is what keeps session
// experiments byte-identical across worker counts.
//
// An event is data, not a callback: its kind names what happens when it
// pops, and the replay's run loop dispatches on it. Timer cancellation is
// by generation, not heap surgery: a timer event carries its kind's
// generation at scheduling time and the owner voids it by bumping that
// generation, so a stale timer pops and is dropped. This is cheaper and
// simpler than removing heap entries, the pop order stays deterministic,
// and once the heap reaches its peak depth no event allocates.
type clock struct {
	now     float64
	horizon float64 // events strictly beyond this instant are dropped
	seq     uint64
	heap    []event
}

// event is one scheduled happening on a link's replay.
type event struct {
	at   float64
	seq  uint64
	kind evKind
	gen  uint64 // the kind's generation when scheduled (timers only)
	win  int    // the fault window a kPhysDown/kPhysUp edge belongs to
}

func (c *clock) less(i, j int) bool {
	if c.heap[i].at != c.heap[j].at {
		return c.heap[i].at < c.heap[j].at
	}
	return c.heap[i].seq < c.heap[j].seq
}

// push enqueues e. Events beyond the horizon are dropped — the replay
// finalizer truncates whatever they would have closed. Scheduling in the
// past is a replay bug; clamp to now so it still fires deterministically
// rather than corrupting heap order.
func (c *clock) push(e event) {
	if e.at > c.horizon {
		return
	}
	if e.at < c.now {
		e.at = c.now
	}
	e.seq = c.seq
	c.seq++
	c.heap = append(c.heap, e)
	// Sift up.
	i := len(c.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			break
		}
		c.heap[i], c.heap[parent] = c.heap[parent], c.heap[i]
		i = parent
	}
}

// pop removes the earliest event from a non-empty heap, advances now to
// it and returns it.
func (c *clock) pop() event {
	e := c.heap[0]
	// Move last to root, sift down.
	last := len(c.heap) - 1
	c.heap[0] = c.heap[last]
	c.heap = c.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && c.less(l, small) {
			small = l
		}
		if r < last && c.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		c.heap[i], c.heap[small] = c.heap[small], c.heap[i]
		i = small
	}
	c.now = e.at
	return e
}
