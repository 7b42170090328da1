package harness

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"beatbgp/internal/core"
)

func renderFinal(t *testing.T, rep *Report) string {
	t.Helper()
	var b strings.Builder
	for _, r := range rep.FinalResults() {
		b.WriteString(r.Render())
	}
	return b.String()
}

// TestKillAndResumeByteIdentical is the supervisor's determinism
// contract: a campaign interrupted mid-flight and resumed renders
// byte-identically to one that ran uninterrupted, at any worker count —
// and the resume re-runs nothing that was already checkpointed (zero
// attempts on every resumed cell, per the manifest).
func TestKillAndResumeByteIdentical(t *testing.T) {
	seeds := []uint64{42, 7}
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := testBase(seeds[0])
			base.Workers = workers

			// Two synthetic experiments over a two-seed sweep: four cells.
			// gate (when non-nil) blocks the second seed's cells until the
			// context dies, so the interruption always lands mid-campaign.
			mkExps := func(gate <-chan struct{}) []core.Experiment {
				run := func(id string) func(context.Context, *core.Scenario) (core.Result, error) {
					return func(ctx context.Context, s *core.Scenario) (core.Result, error) {
						if gate != nil && s.Cfg.Seed == seeds[1] {
							select {
							case <-gate:
							case <-ctx.Done():
								return core.Result{}, ctx.Err()
							}
						}
						return synthResult(s, id), nil
					}
				}
				return []core.Experiment{
					synth("t:alpha", run("t:alpha")),
					synth("t:beta", run("t:beta")),
				}
			}

			// Baseline: uninterrupted, no persistence.
			baseRep, err := Run(context.Background(),
				Campaign{Base: base, Seeds: seeds, Experiments: mkExps(nil)}, Config{})
			if err != nil || !baseRep.Complete() {
				t.Fatalf("baseline: complete=%v err=%v", baseRep.Complete(), err)
			}
			want := renderFinal(t, baseRep)
			if want == "" {
				t.Fatal("baseline rendered empty")
			}

			// Interrupted run: cancel the campaign as soon as the first
			// checkpoint lands; seed-7 cells are gated shut.
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			events := make(chan Event, 256)
			go func() {
				for ev := range events {
					if ev.Kind == EventCheckpoint {
						cancel()
						return
					}
				}
			}()
			rep1, err := Run(ctx,
				Campaign{Base: base, Seeds: seeds, Experiments: mkExps(make(chan struct{}))},
				Config{RunDir: dir, Events: events})
			if err != nil {
				t.Fatalf("interrupted run: %v", err)
			}
			if rep1.Complete() {
				t.Fatal("interrupted run completed; the gate failed to hold the drain open")
			}
			completed := 0
			for _, o := range rep1.Outcomes {
				if o.Status == StatusOK {
					completed++
				}
			}
			if completed == 0 {
				t.Fatal("no cell completed before the drain")
			}

			// Resume with the gates open: the checkpointed cells must be
			// restored without re-running, the rest run fresh.
			open := make(chan struct{})
			close(open)
			rep2, err := Run(context.Background(),
				Campaign{Base: base, Seeds: seeds, Experiments: mkExps(open)},
				Config{RunDir: dir, Resume: true})
			if err != nil {
				t.Fatalf("resume run: %v", err)
			}
			if !rep2.Complete() || rep2.ExitCode() != 0 {
				t.Fatalf("resume run: complete=%v exit=%d", rep2.Complete(), rep2.ExitCode())
			}
			resumed := 0
			for _, o := range rep2.Outcomes {
				switch o.Status {
				case StatusResumed:
					resumed++
					if o.Attempts != 0 {
						t.Errorf("resumed cell %s consumed %d attempts, want 0 (no re-run)",
							o.CellRef, o.Attempts)
					}
				case StatusOK:
				default:
					t.Errorf("cell %s finished resume run with status %q", o.CellRef, o.Status)
				}
			}
			if resumed != completed {
				t.Errorf("resume restored %d cells, %d were checkpointed", resumed, completed)
			}

			// The persisted manifest must agree: zero attempts across every
			// resumed cell, full completion, exit 0.
			m := readManifest(t, dir)
			if !m.Complete || m.ExitCode != 0 {
				t.Errorf("manifest: complete=%v exit=%d, want true/0", m.Complete, m.ExitCode)
			}
			if m.Counts[StatusResumed] != completed {
				t.Errorf("manifest counts %d resumed cells, want %d", m.Counts[StatusResumed], completed)
			}
			for _, o := range m.Outcomes {
				if o.Status == StatusResumed && o.Attempts != 0 {
					t.Errorf("manifest records %d attempts for resumed cell %s, want 0", o.Attempts, o.CellRef)
				}
			}

			// The headline contract: byte-identical final render.
			if got := renderFinal(t, rep2); got != want {
				t.Errorf("resumed render differs from uninterrupted baseline:\n got: %q\nwant: %q", got, want)
			}
		})
	}
}
