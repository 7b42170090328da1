package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"beatbgp/internal/xrand"
)

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		got, err := Map(workers, ints(57), func(i, item int) (int, error) {
			return item * item, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, nil, func(i, item int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty input: got %v, %v", got, err)
	}
}

func TestMapLowestIndexError(t *testing.T) {
	// Several items fail; the reported error must be the lowest failing
	// index regardless of completion order — the error a serial loop
	// would have hit.
	for _, workers := range []int{1, 2, 8} {
		_, err := Map(workers, ints(64), func(i, item int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("boom at %d", i)
			}
			return item, nil
		})
		if err == nil || !strings.Contains(err.Error(), "boom at 3") {
			t.Fatalf("workers=%d: want lowest-index error, got %v", workers, err)
		}
	}
}

func TestMapPanicCaptured(t *testing.T) {
	_, err := Map(4, ints(16), func(i, item int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return item, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if !strings.Contains(pe.Error(), "kaboom") || len(pe.Stack) == 0 {
		t.Fatalf("panic error lacks value or stack: %v", pe)
	}
}

func TestMapCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapCtx(ctx, 4, ints(100), func(i, item int) (int, error) {
		return item, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestMapCtxCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	_, err := MapCtx(ctx, 2, ints(10_000), func(i, item int) (int, error) {
		if n.Add(1) == 50 {
			cancel()
		}
		return item, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := n.Load(); got >= 10_000 {
		t.Fatalf("cancellation did not stop dispatch: %d items ran", got)
	}
}

func TestMapStatePerWorkerState(t *testing.T) {
	// Each worker's state is confined: no two goroutines ever share one.
	// Every state instance counts its own items; the counts must sum to n.
	type counter struct{ n int }
	var made atomic.Int64
	states := make([]*counter, 64)
	got, err := MapState(8, ints(500),
		func(worker int) *counter {
			c := &counter{}
			states[made.Add(1)-1] = c
			return c
		},
		func(c *counter, i, item int) (int, error) {
			c.n++
			return item, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("got %d results", len(got))
	}
	total := 0
	for i := int64(0); i < made.Load(); i++ {
		total += states[i].n
	}
	if total != 500 {
		t.Fatalf("per-worker counts sum to %d, want 500", total)
	}
}

func TestMapStateNewStatePanic(t *testing.T) {
	_, err := MapState(4, ints(8),
		func(worker int) int {
			if worker == 0 {
				panic("bad state")
			}
			return worker
		},
		func(st, i, item int) (int, error) { return item, nil })
	// With >1 workers the surviving workers may finish everything before
	// the panicking one registers, but the panic must still surface.
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError from newState, got %v", err)
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(5) != 5 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-2) < 1 {
		t.Fatal("defaulted worker count below 1")
	}
}

// TestStressRandomWorkersVsSerialOracle is the randomized stress check
// behind `make stress-par`: many rounds of random worker counts and input
// sizes, with per-item keyed random draws, compared against a serial
// oracle computed with the same keying.
func TestStressRandomWorkersVsSerialOracle(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	meta := xrand.New(0xC0FFEE)
	for round := 0; round < rounds; round++ {
		n := 1 + meta.Intn(300)
		workers := 1 + meta.Intn(16)
		seed := meta.Uint64()
		item := func(i int) float64 {
			// Draws keyed by item index — the package's RNG-splitting rule.
			rng := xrand.Derive(seed, uint64(i))
			return rng.Float64() + rng.Norm(0, 1) + float64(i)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = item(i)
		}
		got, err := Map(workers, ints(n), func(i, _ int) (float64, error) {
			return item(i), nil
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d (n=%d workers=%d): item %d: parallel %v != serial %v",
					round, n, workers, i, got[i], want[i])
			}
		}
	}
}

// FuzzMapVsSerial fuzzes worker counts and seeds against the serial
// oracle; `make fuzz-par` runs it for longer.
func FuzzMapVsSerial(f *testing.F) {
	f.Add(uint64(1), 4, 64)
	f.Add(uint64(42), 1, 7)
	f.Add(uint64(7), 13, 200)
	f.Fuzz(func(t *testing.T, seed uint64, workers, n int) {
		if n < 0 {
			n = -n
		}
		n %= 512
		item := func(i int) uint64 { return xrand.Derive(seed, uint64(i)).Uint64() }
		got, err := Map(workers, ints(n), func(i, _ int) (uint64, error) {
			return item(i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if got[i] != item(i) {
				t.Fatalf("item %d diverges from serial oracle", i)
			}
		}
	})
}
