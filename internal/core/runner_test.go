package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"beatbgp/internal/core"
	"beatbgp/internal/harness"
)

// These tests run registry experiments by ID under a context through
// harness.Run, the one runner that takes a context and a per-attempt
// deadline; core.RunByID is the plain call without either.

func runnerBase(seed uint64) core.Config {
	cfg := core.Config{Seed: seed}
	cfg.Topology.EyeballsPerRegion = 8
	cfg.Workload.Days = 2
	return cfg
}

func onlyOutcome(t *testing.T, rep *harness.Report) harness.Outcome {
	t.Helper()
	if len(rep.Outcomes) != 1 {
		t.Fatalf("got %d outcomes, want 1", len(rep.Outcomes))
	}
	return rep.Outcomes[0]
}

func TestRunByIDContextUnknown(t *testing.T) {
	camp := harness.Campaign{Base: runnerBase(1), IDs: []string{"nope"}}
	_, err := harness.Run(context.Background(), camp, harness.Config{})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("want unknown-experiment error, got %v", err)
	}
	s, err := core.NewScenario(runnerBase(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunByID(s, "nope"); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("RunByID: want unknown-experiment error, got %v", err)
	}
}

func TestRunByIDContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	camp := harness.Campaign{Base: runnerBase(1), IDs: []string{"fig1"}}
	rep, err := harness.Run(ctx, camp, harness.Config{})
	if err != nil {
		t.Fatal(err)
	}
	o := onlyOutcome(t, rep)
	if o.Status == harness.StatusOK || o.Kind != harness.KindCancelled || o.Attempts != 0 {
		t.Fatalf("outcome (%s, %s, %d attempts), want a cancelled cell that never ran", o.Status, o.Kind, o.Attempts)
	}
	if rep.Complete() || rep.ExitCode() != 2 {
		t.Fatalf("complete=%v exit=%d, want an incomplete campaign (exit 2)", rep.Complete(), rep.ExitCode())
	}
}

func TestRunByIDContextTimeout(t *testing.T) {
	// A fresh world has no cached traces, so fig1 takes well over a
	// nanosecond; the deadline must fire.
	camp := harness.Campaign{Base: runnerBase(2), IDs: []string{"fig1"}}
	rep, err := harness.Run(context.Background(), camp, harness.Config{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	o := onlyOutcome(t, rep)
	if o.Kind != harness.KindTimeout || o.Attempts != 1 || !strings.Contains(o.Err, "deadline exceeded") {
		t.Fatalf("outcome (%s, %d attempts, %q), want a deadline-exceeded timeout after 1 attempt", o.Kind, o.Attempts, o.Err)
	}
	if !errors.Is(rep.FirstError(), harness.ErrTimeout) {
		t.Fatalf("FirstError %v does not match ErrTimeout", rep.FirstError())
	}
}

func TestRunByIDContextCompletes(t *testing.T) {
	camp := harness.Campaign{Base: runnerBase(1), IDs: []string{"t32"}}
	rep, err := harness.Run(context.Background(), camp, harness.Config{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := rep.Result("t32", 1)
	if !rep.Complete() || !ok {
		t.Fatalf("complete=%v, result present=%v; want both", rep.Complete(), ok)
	}
	if r.ID != "t32" {
		t.Fatalf("got result %q, want t32", r.ID)
	}
}

// TestRunSeeds: a registry experiment swept over two seeds renders as one
// mean/min/max summary.
func TestRunSeeds(t *testing.T) {
	camp := harness.Campaign{Base: runnerBase(0), IDs: []string{"t32"}, Seeds: []uint64{51, 52}}
	rep, err := harness.Run(context.Background(), camp, harness.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rs := rep.FinalResults()
	if !rep.Complete() || len(rs) != 1 {
		t.Fatalf("complete=%v with %d results, want a complete campaign with 1", rep.Complete(), len(rs))
	}
	r := rs[0]
	if r.ID != "t32@seeds" {
		t.Fatalf("aggregated ID = %s", r.ID)
	}
	tb := r.Tables[0]
	mean, ok1 := tb.Cell("nearest", "median_km_mean")
	lo, ok2 := tb.Cell("nearest", "median_km_min")
	hi, ok3 := tb.Cell("nearest", "median_km_max")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("aggregate cells missing")
	}
	if !(lo <= mean && mean <= hi) {
		t.Fatalf("aggregate ordering broken: %v %v %v", lo, mean, hi)
	}
	camp.IDs = []string{"nope"}
	if _, err := harness.Run(context.Background(), camp, harness.Config{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
