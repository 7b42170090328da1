package cdn

import (
	"context"
	"errors"
	"testing"
)

// TestEpochContextCancelled: an expired context aborts the view's
// anycast chain with the context's error, and the chain recovers on the
// next live-context query with answers bit-identical to a rebuild.
func TestEpochContextCancelled(t *testing.T) {
	topo, c := buildWith(t, 5, lowerMatbgp)
	seq := epochSequence(t, topo, c)
	v := c.WithEpochs(seq)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := v.AnycastRIBAtContext(cancelled, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled anycast query returned %v, want context.Canceled", err)
	}

	// Recovery: the same epochs answer correctly with a live context.
	for _, e := range []int{2, 0, 3} {
		got, err := v.AnycastRIBAtContext(context.Background(), e)
		if err != nil {
			t.Fatalf("epoch %d after cancellation: %v", e, err)
		}
		want, err := c.Routes().ComputeWithout(c.Announcements(nil), seq.Epoch(e).DownSet())
		if err != nil {
			t.Fatal(err)
		}
		sameRIB(t, topo, got, want, "anycast post-cancel")
	}
}

// TestEpochContextPlainDelegates: the context-free entry point answers
// exactly like its Context variant under a background context.
func TestEpochContextPlainDelegates(t *testing.T) {
	topo, c := build(t, 5)
	v := c.WithEpochs(epochSequence(t, topo, c))
	a, err := v.AnycastRIBAt(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.AnycastRIBAtContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("AnycastRIBAt and AnycastRIBAtContext answered different memoized RIBs")
	}
}
