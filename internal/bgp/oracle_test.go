package bgp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// fakeComputer scripts per-origin outcomes for PrimeOrigins tests.
type fakeComputer struct {
	mu sync.Mutex
	fn func(origin int) (*RIB, error)
}

func (f *fakeComputer) Compute(anns []Announcement) (*RIB, error) {
	f.mu.Lock()
	fn := f.fn
	f.mu.Unlock()
	return fn(anns[0].Origin)
}

func (f *fakeComputer) ComputeWithout(anns []Announcement, down map[int]bool) (*RIB, error) {
	return f.Compute(anns)
}

// TestPrimeOriginsAnnotatesUnfinishedOnCancel: a cancellation with no
// underlying failure names the first origin whose RIB never finished,
// instead of returning an anonymous "context canceled".
func TestPrimeOriginsAnnotatesUnfinishedOnCancel(t *testing.T) {
	comp := &fakeComputer{fn: func(origin int) (*RIB, error) {
		t.Fatalf("computer should not run under a pre-cancelled context")
		return nil, nil
	}}
	o := NewOracle(comp)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := o.PrimeOrigins(ctx, 2, []int{7, 8, 9})
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should still be a cancellation: %v", err)
	}
	if !strings.Contains(err.Error(), "first unfinished origin: 7") {
		t.Fatalf("cancellation does not name the first unfinished origin: %v", err)
	}
}

// TestPrimeOriginsAnnotatesFirstFailure locks the drain contract: when
// the context is cancelled after some origin already failed for a real
// reason, the cancellation error must carry that first failure instead
// of masking it.
func TestPrimeOriginsAnnotatesFirstFailure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := fmt.Errorf("disk melted")
	comp := &fakeComputer{fn: func(origin int) (*RIB, error) {
		if origin == 1 {
			// The culprit: fail for a real reason, then cancel the
			// campaign, inducing a cancellation at the innocent origin.
			cancel()
			return nil, boom
		}
		<-ctx.Done() // the innocent origin blocks until the drain
		return nil, ctx.Err()
	}}
	o := NewOracle(comp)
	err := o.PrimeOrigins(ctx, 2, []int{0, 1})
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("lowest-index error should still be a cancellation: %v", err)
	}
	if !strings.Contains(err.Error(), "first failure: origin 1") || !strings.Contains(err.Error(), "disk melted") {
		t.Fatalf("cancellation error does not name the first failure: %v", err)
	}
}

// TestPrimeOriginsRealErrorUnwrapped: a plain computation failure (no
// cancellation anywhere) surfaces as-is, lowest index first.
func TestPrimeOriginsRealErrorUnwrapped(t *testing.T) {
	boom := fmt.Errorf("bad origin")
	comp := &fakeComputer{fn: func(origin int) (*RIB, error) {
		if origin == 3 {
			return nil, boom
		}
		return &RIB{}, nil
	}}
	o := NewOracle(comp)
	err := o.PrimeOrigins(context.Background(), 1, []int{2, 3, 4})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("want the computation error, got %v", err)
	}
	if strings.Contains(err.Error(), "first failure") || strings.Contains(err.Error(), "unfinished") {
		t.Fatalf("real failures must not get cancellation annotations: %v", err)
	}
}
