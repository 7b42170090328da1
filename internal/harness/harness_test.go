package harness

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"beatbgp/internal/core"
	"beatbgp/internal/par"
	"beatbgp/internal/stats"
)

// testBase is the small world every supervisor test runs against.
func testBase(seed uint64) core.Config {
	cfg := core.Config{Seed: seed, Workers: 2}
	cfg.Topology.EyeballsPerRegion = 6
	cfg.Workload.Days = 2
	return cfg
}

func synth(id string, run func(context.Context, *core.Scenario) (core.Result, error)) core.Experiment {
	return core.Experiment{ID: id, Title: "synthetic " + id, Run: run}
}

// synthResult is deterministic in the scenario (seed-dependent, with a
// float that has no finite binary expansion) so determinism assertions
// have something real to bite on.
func synthResult(s *core.Scenario, id string) core.Result {
	t := stats.Table{Name: "metrics", Columns: []string{"value"}}
	t.AddRow("seed_third", float64(s.Cfg.Seed)/3.0)
	t.AddRow("ases", float64(len(s.Topo.ASes)))
	return core.Result{ID: id, Title: "synthetic " + id, Tables: []stats.Table{t}}
}

func okRun(id string) func(context.Context, *core.Scenario) (core.Result, error) {
	return func(_ context.Context, s *core.Scenario) (core.Result, error) {
		return synthResult(s, id), nil
	}
}

func outcomeFor(t *testing.T, rep *Report, id string) Outcome {
	t.Helper()
	for _, o := range rep.Outcomes {
		if o.Experiment == id {
			return o
		}
	}
	t.Fatalf("no outcome for experiment %q", id)
	return Outcome{}
}

func readManifest(t *testing.T, dir string) Manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPanicIsolation: one experiment panicking must not abort the
// campaign — its siblings complete, the exit contract says partial (2),
// and the manifest records the panic with its stack.
func TestPanicIsolation(t *testing.T) {
	dir := t.TempDir()
	camp := Campaign{Base: testBase(11), Experiments: []core.Experiment{
		synth("t:ok1", okRun("t:ok1")),
		synth("t:boom", func(context.Context, *core.Scenario) (core.Result, error) {
			panic("kaboom")
		}),
		synth("t:ok2", okRun("t:ok2")),
	}}
	rep, err := Run(context.Background(), camp, Config{RunDir: dir})
	if err != nil {
		t.Fatalf("a cell panic must not be a supervisor error: %v", err)
	}
	if rep.Complete() {
		t.Fatal("campaign with a panicked cell reported complete")
	}
	if rep.ExitCode() != 2 {
		t.Fatalf("exit code = %d, want 2 (partial)", rep.ExitCode())
	}
	for _, id := range []string{"t:ok1", "t:ok2"} {
		if o := outcomeFor(t, rep, id); o.Status != StatusOK {
			t.Errorf("%s: status %q, want ok — siblings must survive a panic", id, o.Status)
		}
	}
	boom := outcomeFor(t, rep, "t:boom")
	if boom.Status != StatusFailed || boom.Kind != KindPanic {
		t.Fatalf("panicked cell filed as (%s, %s), want (failed, panic)", boom.Status, boom.Kind)
	}
	if !strings.Contains(boom.Err, "kaboom") {
		t.Errorf("outcome error %q does not carry the panic value", boom.Err)
	}
	if boom.Stack == "" || !strings.Contains(boom.Stack, "goroutine") {
		t.Errorf("outcome stack %q is not a goroutine stack", boom.Stack)
	}
	if boom.Attempts != 1 {
		t.Errorf("panic consumed %d attempts, want 1", boom.Attempts)
	}
	if !errors.Is(rep.FirstError(), ErrPanic) {
		t.Errorf("FirstError %v does not match ErrPanic", rep.FirstError())
	}
	m := readManifest(t, dir)
	if m.ExitCode != 2 || m.Complete {
		t.Errorf("manifest says exit=%d complete=%v, want 2/false", m.ExitCode, m.Complete)
	}
	var mb *Outcome
	for i := range m.Outcomes {
		if m.Outcomes[i].Experiment == "t:boom" {
			mb = &m.Outcomes[i]
		}
	}
	if mb == nil || mb.Kind != KindPanic || mb.Stack == "" {
		t.Errorf("manifest does not record the panic with its stack: %+v", mb)
	}
	if m.Counts[StatusOK] != 2 || m.Counts[StatusFailed] != 1 {
		t.Errorf("manifest counts = %v, want 2 ok / 1 failed", m.Counts)
	}
}

// TestTimeoutTakesOneAttempt: a cell whose attempt outlives
// Config.Timeout is filed as a typed timeout after exactly one attempt.
func TestTimeoutTakesOneAttempt(t *testing.T) {
	camp := Campaign{Base: testBase(5), Experiments: []core.Experiment{
		synth("t:hang", func(ctx context.Context, _ *core.Scenario) (core.Result, error) {
			<-ctx.Done()
			return core.Result{}, ctx.Err()
		}),
	}}
	rep, err := Run(context.Background(), camp, Config{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if o := outcomeFor(t, rep, "t:hang"); o.Status != StatusFailed || o.Kind != KindTimeout || o.Attempts != 1 {
		t.Errorf("hung cell (%s, %s, %d attempts), want (failed, timeout, 1)", o.Status, o.Kind, o.Attempts)
	}
	if !errors.Is(rep.FirstError(), ErrTimeout) {
		t.Errorf("FirstError %v does not match ErrTimeout", rep.FirstError())
	}
}

// TestNonTransientNotRetried: an ordinary error is filed as a failure
// and burns exactly one attempt.
func TestNonTransientNotRetried(t *testing.T) {
	var attempts atomic.Int32
	camp := Campaign{Base: testBase(5), Experiments: []core.Experiment{
		synth("t:hard", func(context.Context, *core.Scenario) (core.Result, error) {
			attempts.Add(1)
			return core.Result{}, errors.New("deterministic defect")
		}),
	}}
	rep, err := Run(context.Background(), camp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	o := outcomeFor(t, rep, "t:hard")
	if o.Status != StatusFailed || o.Kind != KindError || o.Attempts != 1 {
		t.Fatalf("outcome (%s, %s, %d attempts), want (failed, error, 1)", o.Status, o.Kind, o.Attempts)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("experiment ran %d times, want 1", n)
	}
}

// TestRunExperimentPanicIsTyped: the isolation primitive turns a panic
// into a *par.PanicError that carries the value and the stack and names
// the experiment.
func TestRunExperimentPanicIsTyped(t *testing.T) {
	s, err := core.NewScenario(testBase(1))
	if err != nil {
		t.Fatal(err)
	}
	boom := synth("boom", func(context.Context, *core.Scenario) (core.Result, error) {
		panic("kaboom")
	})
	_, err = runWithContext(context.Background(), s, boom, 0)
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *par.PanicError, got %v", err)
	}
	if pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("panic error missing value or stack: %+v", pe)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error does not name the experiment: %v", err)
	}
}

// TestBuildFailureFilesEveryCell: a seed whose world cannot be built is
// built once, before its cells start. The failure is reported as one
// EventWorld, and every cell of that seed is filed under it.
func TestBuildFailureFilesEveryCell(t *testing.T) {
	base := testBase(6)
	base.Topology.EyeballsPerRegion = 200 // more client prefixes than the address pool holds
	events := make(chan Event, 64)
	camp := Campaign{Base: base, IDs: []string{"t32", "t33", "fig3", "t4g"}}
	rep, err := Run(context.Background(), camp, Config{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	close(events)
	var failed []Event
	for ev := range events {
		if ev.Kind == EventWorld {
			failed = append(failed, ev)
		}
	}
	if len(failed) != 1 || failed[0].Err == "" || failed[0].Seed != 6 {
		t.Fatalf("world events %+v, want exactly one failed build for seed 6", failed)
	}
	for _, o := range rep.Outcomes {
		if o.Status != StatusFailed || o.Kind != KindBuildFailed || o.Err != failed[0].Err {
			t.Errorf("cell %s filed as (%s, %s, %q), want the build failure", o.CellRef, o.Status, o.Kind, o.Err)
		}
	}
	if !errors.Is(rep.FirstError(), ErrBuildFailed) {
		t.Errorf("FirstError %v does not match ErrBuildFailed", rep.FirstError())
	}
}

// TestAbandonedAttemptLeavesSiblingsIntact: a timed-out cell's goroutine
// is abandoned, not stopped, and the world stays in use. Here it goes on
// running fig1, xfaults and t4g — which fill the scenario's trace, fault
// epoch and cloud-tier memos — on the shared scenario, while registry
// cells that read those memos run beside it. Their results must equal a
// campaign's without the abandoned cell, and the test records that the
// two really overlapped.
func TestAbandonedAttemptLeavesSiblingsIntact(t *testing.T) {
	base := testBase(21)
	base.Workload.Days = 1
	base.Workers = 1 // cells start in campaign order: the hung cell first
	siblings := []string{"t311", "xcap", "xfaults", "t33", "xdetect", "xflap"}
	reg := make(map[string]core.Experiment)
	for _, e := range core.Experiments() {
		reg[e.ID] = e
	}

	ref, err := Run(context.Background(), Campaign{Base: base, IDs: siblings}, Config{})
	if err != nil || !ref.Complete() {
		t.Fatalf("reference campaign: complete=%v err=%v", ref.Complete(), err)
	}
	// Every sibling must finish well inside the deadline the hung cell
	// exceeds; each attempt's deadline starts when that attempt does.
	timeout := time.Second
	for _, o := range ref.Outcomes {
		timeout = max(timeout, 8*time.Duration(o.WallMs*float64(time.Millisecond)))
	}

	var (
		abandoned  atomic.Bool  // the hung cell's deadline has fired
		inCall     atomic.Bool  // its goroutine is inside a registry experiment
		active     atomic.Int32 // sibling cells inside their Run
		overlapped atomic.Bool
	)
	stop, exited := make(chan struct{}), make(chan struct{})
	exps := []core.Experiment{synth("t:hang", func(ctx context.Context, s *core.Scenario) (core.Result, error) {
		defer close(exited)
		<-ctx.Done()
		abandoned.Store(true)
		for {
			for _, id := range []string{"fig1", "xfaults", "t4g"} {
				select {
				case <-stop:
					return core.Result{}, ctx.Err()
				default:
				}
				inCall.Store(true)
				if active.Load() > 0 {
					overlapped.Store(true)
				}
				_, err := reg[id].Run(context.Background(), s)
				inCall.Store(false)
				if err != nil {
					t.Errorf("abandoned goroutine: %s: %v", id, err)
				}
			}
		}
	})}
	for _, id := range siblings {
		e := reg[id]
		exps = append(exps, core.Experiment{ID: id, Title: e.Title, Run: func(ctx context.Context, s *core.Scenario) (core.Result, error) {
			active.Add(1)
			defer active.Add(-1)
			if abandoned.Load() && inCall.Load() {
				overlapped.Store(true)
			}
			return e.Run(ctx, s)
		}})
	}
	rep, err := Run(context.Background(), Campaign{Base: base, Experiments: exps}, Config{Timeout: timeout})
	close(stop)
	<-exited
	if err != nil {
		t.Fatal(err)
	}
	if o := outcomeFor(t, rep, "t:hang"); o.Kind != KindTimeout || o.Attempts != 1 {
		t.Fatalf("hung cell filed as (%s, %s, %d attempts), want a timeout after 1", o.Status, o.Kind, o.Attempts)
	}
	if !overlapped.Load() {
		t.Fatal("no sibling ran while the abandoned goroutine was inside a registry experiment")
	}
	for _, id := range siblings {
		got, ok := rep.Result(id, base.Seed)
		if !ok {
			t.Errorf("%s: %s", id, outcomeFor(t, rep, id).Err)
			continue
		}
		want, _ := ref.Result(id, base.Seed)
		if got.Render() != want.Render() {
			t.Errorf("%s beside the abandoned goroutine differs from the campaign without it\n--- beside ---\n%s\n--- without ---\n%s",
				id, got.Render(), want.Render())
		}
	}
}

// TestCancellationLeavesNoPartialCheckpoint: a drain mid-campaign leaves
// the run directory with only complete, loadable checkpoints and the
// manifest — never a torn file or a stray temp.
func TestCancellationLeavesNoPartialCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := make(chan Event, 128)
	go func() {
		for ev := range events {
			if ev.Kind == EventCheckpoint {
				cancel() // the drain arrives right after the first cell lands
				return
			}
		}
	}()
	camp := Campaign{Base: testBase(9), Experiments: []core.Experiment{
		synth("t:fast", okRun("t:fast")),
		synth("t:hang", func(ctx context.Context, s *core.Scenario) (core.Result, error) {
			<-ctx.Done()
			return core.Result{}, ctx.Err()
		}),
	}}
	rep, err := Run(ctx, camp, Config{RunDir: dir, Events: events})
	if err != nil {
		t.Fatalf("a drain must not be a supervisor error: %v", err)
	}
	if rep.Complete() || rep.ExitCode() != 2 {
		t.Fatalf("drained campaign: complete=%v exit=%d, want false/2", rep.Complete(), rep.ExitCode())
	}
	if o := outcomeFor(t, rep, "t:hang"); o.Status != StatusCancelled && o.Status != StatusSkipped {
		t.Errorf("hung cell status %q, want cancelled or skipped", o.Status)
	}
	if b := rep.Banner(); !strings.Contains(b, "INCOMPLETE RUN") || !strings.Contains(b, "-resume") {
		t.Errorf("banner missing the partial marker or the resume hint:\n%s", b)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Errorf("stray temp file %q after drain", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Errorf("torn file %q in run dir after drain", e.Name())
		}
	}
	// Every checkpoint present corresponds to a completed cell and loads.
	for _, o := range rep.Outcomes {
		_, ok, err := loadCheckpoint(dir, o.CellRef)
		if err != nil {
			t.Errorf("cell %s: unreadable checkpoint: %v", o.CellRef, err)
		}
		if ok && o.Status != StatusOK {
			t.Errorf("cell %s has status %q but a checkpoint on disk", o.CellRef, o.Status)
		}
		if !ok && o.Status == StatusOK {
			t.Errorf("completed cell %s has no checkpoint", o.CellRef)
		}
	}
	if m := readManifest(t, dir); m.Complete || m.ExitCode != 2 {
		t.Errorf("manifest after drain: complete=%v exit=%d, want false/2", m.Complete, m.ExitCode)
	}
}

// TestBadCheckpointReruns: a corrupt checkpoint demotes the cell to a
// re-run (with an event), never an abort — and the re-run repairs it.
func TestBadCheckpointReruns(t *testing.T) {
	dir := t.TempDir()
	camp := Campaign{Base: testBase(4), Experiments: []core.Experiment{
		synth("t:x", okRun("t:x")),
	}}
	rep, err := Run(context.Background(), camp, Config{RunDir: dir})
	if err != nil || !rep.Complete() {
		t.Fatalf("seed run: complete=%v err=%v", rep.Complete(), err)
	}
	ref := rep.Outcomes[0].CellRef
	if err := os.WriteFile(filepath.Join(dir, checkpointName(ref)), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	events := make(chan Event, 64)
	rep2, err := Run(context.Background(), camp, Config{RunDir: dir, Resume: true, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	o := outcomeFor(t, rep2, "t:x")
	if o.Status != StatusOK || o.Attempts != 1 {
		t.Fatalf("cell with corrupt checkpoint: (%s, %d attempts), want a clean re-run", o.Status, o.Attempts)
	}
	sawBad := false
	for {
		select {
		case ev := <-events:
			sawBad = sawBad || ev.Kind == EventBadCheckpoint
			continue
		default:
		}
		break
	}
	if !sawBad {
		t.Error("no EventBadCheckpoint emitted for the corrupt file")
	}
	if _, ok, err := loadCheckpoint(dir, ref); err != nil || !ok {
		t.Fatalf("re-run did not repair the checkpoint: ok=%v err=%v", ok, err)
	}
}

func TestRunValidation(t *testing.T) {
	base := testBase(1)
	cases := []struct {
		name string
		camp Campaign
		cfg  Config
	}{
		{"resume without dir", Campaign{Base: base, IDs: []string{"fig1"}}, Config{Resume: true}},
		{"unknown experiment", Campaign{Base: base, IDs: []string{"no-such"}}, Config{}},
		{"duplicate experiment", Campaign{Base: base, IDs: []string{"fig1", "fig1"}}, Config{}},
		{"duplicate seed", Campaign{Base: base, IDs: []string{"fig1"}, Seeds: []uint64{3, 3}}, Config{}},
	}
	for _, tc := range cases {
		if _, err := Run(context.Background(), tc.camp, tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
