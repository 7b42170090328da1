// Package harness is the crash-safe experiment supervisor and the one
// way to run many experiments: it runs the experiment registry over one
// or more seeds inside the run layer a long campaign needs to survive
// its own failures.
//
// A campaign is a grid of cells — one (experiment, seed) pair each — and
// the supervisor guarantees that one bad cell never discards the rest:
//
//   - Isolation. Every cell runs through runWithContext, so a panic
//     inside Run is captured (internal/par's panic plumbing, stack
//     included) and filed under a typed taxonomy (Kind / CellError /
//     errors.Is-able sentinels) instead of crashing the campaign.
//   - Deadlines. Config.Watchdog emits a slow-experiment warning event
//     while Config.Timeout kills the attempt. Each cell runs once: a
//     deterministic cell that timed out would time out again, and
//     -resume re-runs exactly the incomplete cells. The abandoned
//     goroutine of a timed-out cell runs on against the seed's world like
//     any concurrent cell; the world's lazy memos are guarded, cache only
//     successes and are value-deterministic (DESIGN §9), so the world
//     stays in use.
//   - Checkpoints. With Config.RunDir set, every completed cell is
//     persisted as JSON keyed by the build graph's content key
//     (WorldKey ⊕ experiment ID), written via temp file + atomic rename;
//     Config.Resume skips cells whose checkpoint is already on disk. A
//     config change invalidates exactly the stale cells.
//   - Drain. When the campaign context dies (SIGINT/SIGTERM in
//     cmd/beatbgp), no new cells start; in-flight cells get Config.Grace
//     to finish (and still checkpoint) before being abandoned; and the
//     manifest plus partial results are emitted with an explicit
//     INCOMPLETE banner rather than thrown away.
//
// Determinism holds throughout: a resumed campaign renders byte-identical
// output to an uninterrupted one, at any worker count — the checkpoint
// codec round-trips every float bit-exactly and results are merged in
// cell order, never completion order.
package harness

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"beatbgp/internal/core"
	"beatbgp/internal/par"
)

// Campaign is the work grid: one experiment per ID, run against the
// world of every seed.
type Campaign struct {
	// Base is the scenario configuration; Seed is overridden per cell by
	// the Seeds sweep (Scenario.Derive's central seed derivation).
	Base core.Config
	// IDs are the experiments to run, in output order. Empty means the
	// full registry.
	IDs []string
	// Seeds are the worlds to sweep. Empty means {Base.Seed}: a plain
	// single-world run. With more than one seed, FinalResults aggregates
	// per-seed table cells into mean/min/max.
	Seeds []uint64
	// Experiments optionally overrides the registry the IDs resolve
	// against — the hook tests (and embedders with custom studies) use
	// to drive synthetic experiments through the real supervisor.
	Experiments []core.Experiment
}

// Config tunes the supervisor. The zero value runs the campaign once,
// in-memory, with no checkpoints or deadlines.
type Config struct {
	// RunDir is the checkpoint directory; "" disables persistence.
	RunDir string
	// Resume skips cells whose checkpoint already exists in RunDir.
	Resume bool
	// Timeout is the hard per-attempt deadline (0: none).
	Timeout time.Duration
	// Watchdog emits an EventSlow warning when an attempt outlives it
	// (0: no warnings). It warns; Timeout kills.
	Watchdog time.Duration
	// Grace lets in-flight cells run this much longer after the campaign
	// context is cancelled, so a drain flushes nearly-done work to the
	// checkpoint directory instead of discarding it (0: abandon
	// immediately).
	Grace time.Duration
	// Events receives supervisor notifications (slow warnings,
	// checkpoints, world builds). Sends never block: when the channel is
	// full the event is dropped, so a slow consumer cannot stall the
	// campaign.
	Events chan<- Event
}

// EventKind tags a supervisor notification.
type EventKind string

const (
	// EventWorld: a seed's world was built (Detail carries the build
	// report), or its build failed (Err is set).
	EventWorld EventKind = "world"
	// EventSlow: an attempt outlived the watchdog and is still running.
	EventSlow EventKind = "slow"
	// EventCheckpoint: a completed cell was persisted.
	EventCheckpoint EventKind = "checkpoint"
	// EventResumed: a cell was restored from RunDir and will not re-run.
	EventResumed EventKind = "resumed"
	// EventBadCheckpoint: a checkpoint existed but could not be used; the
	// cell re-runs.
	EventBadCheckpoint EventKind = "bad-checkpoint"
)

// Event is one supervisor notification.
type Event struct {
	Kind   EventKind
	Cell   CellRef       // zero for world builds
	Seed   uint64        // world builds only
	Wall   time.Duration // elapsed (slow), build time (world)
	Err    string
	Detail string
}

func (c *Config) emit(ev Event) {
	if c.Events == nil {
		return
	}
	select {
	case c.Events <- ev:
	default:
	}
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// cellState is one cell's mutable slot during a run. Each cell is owned
// by exactly one goroutine; everything is read only after the batch's
// WaitGroup settles.
type cellState struct {
	ref   CellRef
	exp   core.Experiment
	out   Outcome
	res   core.Result
	done  bool
	cpErr error // checkpoint write failure: fatal at campaign end
}

// resolve maps the campaign's IDs onto Experiment values.
func (camp Campaign) resolve() ([]core.Experiment, []string, error) {
	reg := camp.Experiments
	if reg == nil {
		reg = core.Experiments()
	}
	byID := make(map[string]core.Experiment, len(reg))
	var order []string
	for _, e := range reg {
		byID[e.ID] = e
		order = append(order, e.ID)
	}
	ids := camp.IDs
	if len(ids) == 0 {
		ids = order
	}
	seen := make(map[string]bool, len(ids))
	exps := make([]core.Experiment, len(ids))
	for i, id := range ids {
		e, ok := byID[id]
		if !ok {
			return nil, nil, fmt.Errorf("harness: unknown experiment %q", id)
		}
		if seen[id] {
			return nil, nil, fmt.Errorf("harness: duplicate experiment %q", id)
		}
		seen[id] = true
		exps[i] = e
	}
	return exps, ids, nil
}

// Run supervises the campaign to the end of the grid or the end of the
// context, whichever comes first, and always returns a full per-cell
// accounting (the Report and, with RunDir set, the persisted manifest).
// The error is non-nil only for hard failures — invalid campaign or
// supervisor configuration, an unusable run directory — where no cells
// were (or could safely be) run; partial completion is not an error
// here, it is Report.ExitCode() == 2 (1 when no world could be built).
func Run(ctx context.Context, camp Campaign, cfg Config) (*Report, error) {
	if cfg.Resume && cfg.RunDir == "" {
		return nil, fmt.Errorf("harness: -resume requires a run directory")
	}
	exps, ids, err := camp.resolve()
	if err != nil {
		return nil, err
	}
	seeds := camp.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{camp.Base.Seed}
	}
	seenSeed := make(map[uint64]bool, len(seeds))
	for _, s := range seeds {
		if seenSeed[s] {
			return nil, fmt.Errorf("harness: duplicate seed %d", s)
		}
		seenSeed[s] = true
	}
	if cfg.RunDir != "" {
		if err := os.MkdirAll(cfg.RunDir, 0o755); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		sweepStaleTemps(cfg.RunDir)
	}
	start := time.Now()

	// Lay the grid out seed-major, so each seed's world is built at most
	// once and derived from the previous seed's (Derive's stage reuse).
	// Cell keys bind each checkpoint to the exact world content.
	type seedBatch struct {
		seed  uint64
		cells []*cellState
	}
	batches := make([]*seedBatch, 0, len(seeds))
	for _, seed := range seeds {
		scfg := camp.Base
		scfg.Seed = seed
		wk, err := core.WorldKey(scfg)
		if err != nil {
			return nil, fmt.Errorf("harness: seed %d: %w", seed, err)
		}
		b := &seedBatch{seed: seed}
		for i, e := range exps {
			b.cells = append(b.cells, &cellState{
				ref: CellRef{Experiment: ids[i], Seed: seed, Key: cellKey(wk, ids[i])},
				exp: e,
			})
		}
		batches = append(batches, b)
	}

	// Resume: restore completed cells before anything runs. A checkpoint
	// that exists but cannot be used (corrupt, mismatched key) demotes to
	// a re-run, never an abort.
	if cfg.Resume {
		for _, b := range batches {
			for _, c := range b.cells {
				r, ok, err := loadCheckpoint(cfg.RunDir, c.ref)
				if err != nil {
					cfg.emit(Event{Kind: EventBadCheckpoint, Cell: c.ref, Err: err.Error()})
					continue
				}
				if ok {
					c.res, c.done = r, true
					c.out = Outcome{CellRef: c.ref, Status: StatusResumed, Attempts: 0}
					cfg.emit(Event{Kind: EventResumed, Cell: c.ref})
				}
			}
		}
	}

	workers := par.Workers(camp.Base.Workers)
	var prev *core.Scenario
	for _, b := range batches {
		var pending []*cellState
		for _, c := range b.cells {
			if !c.done {
				pending = append(pending, c)
			}
		}
		if len(pending) == 0 {
			continue
		}
		s := buildWorld(ctx, camp.Base, b.seed, prev, pending, &cfg)
		if s == nil {
			continue
		}
		prev = s
		// Cells start in campaign order on a fixed pool of workers, all
		// on the one world.
		work := make(chan *cellState)
		var wg sync.WaitGroup
		for range min(workers, len(pending)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := range work {
					runCell(ctx, s, c, &cfg)
				}
			}()
		}
		for _, c := range pending {
			work <- c
		}
		close(work)
		wg.Wait()
	}

	var (
		outcomes []Outcome
		results  = make(map[resKey]core.Result)
		cpErr    error
	)
	for _, b := range batches {
		for _, c := range b.cells {
			outcomes = append(outcomes, c.out)
			if c.done {
				results[resKey{c.ref.Experiment, c.ref.Seed}] = c.res
			}
			if c.cpErr != nil && cpErr == nil {
				cpErr = c.cpErr
			}
		}
	}
	rep := &Report{IDs: ids, Seeds: seeds, Outcomes: outcomes, results: results}
	counts := make(map[Status]int)
	for _, o := range outcomes {
		counts[o.Status]++
	}
	rep.Manifest = Manifest{
		IDs: ids, Seeds: seeds, Workers: workers,
		WallMs: msSince(start), Complete: rep.Complete(), ExitCode: rep.ExitCode(),
		Counts: counts, Outcomes: outcomes,
	}
	if cfg.Timeout > 0 {
		rep.Manifest.Timeout = cfg.Timeout.String()
	}
	if cfg.Watchdog > 0 {
		rep.Manifest.Watchdog = cfg.Watchdog.String()
	}
	if cpErr != nil {
		// The run directory is not recording what we computed; completing
		// "successfully" would leave a resume that silently re-runs (or
		// worse, trusts stale state). Surface it as the hard failure it is.
		return nil, cpErr
	}
	if cfg.RunDir != "" {
		if err := writeManifest(cfg.RunDir, rep.Manifest); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// buildWorld builds one seed's world before any of its cells start,
// derived from the previous seed's world when there is one. A failed
// build emits an EventWorld with Err set, files every pending cell under
// it, and returns nil.
func buildWorld(ctx context.Context, base core.Config, seed uint64, prev *core.Scenario, pending []*cellState, cfg *Config) *core.Scenario {
	fileAll := func(o Outcome) {
		for _, c := range pending {
			o.CellRef = c.ref
			c.out = o
		}
	}
	if ctx.Err() != nil {
		fileAll(Outcome{Status: StatusSkipped, Kind: KindCancelled})
		return nil
	}
	t0 := time.Now()
	var s *core.Scenario
	var err error
	if prev != nil {
		s, err = prev.Derive(ctx, func(c *core.Config) { c.Seed = seed })
	} else {
		wcfg := base
		wcfg.Seed = seed
		s, err = core.NewScenarioContext(ctx, wcfg)
	}
	ev := Event{Kind: EventWorld, Seed: seed, Wall: time.Since(t0)}
	if err == nil {
		ev.Detail = s.BuildReport().Render()
		cfg.emit(ev)
		return s
	}
	ev.Err = err.Error()
	cfg.emit(ev)
	kind := Classify(err)
	if kind == KindError {
		kind = KindBuildFailed
	}
	o := Outcome{Status: StatusFailed, Kind: kind, Err: err.Error(), Attempts: 1, WallMs: msSince(t0)}
	if kind == KindCancelled {
		o = Outcome{Status: StatusCancelled, Kind: kind, Err: err.Error()}
	}
	fileAll(o)
	return nil
}

// runCell runs one cell's single attempt and files its Outcome.
func runCell(ctx context.Context, s *core.Scenario, c *cellState, cfg *Config) {
	t0 := time.Now()
	fin := func(o Outcome) {
		o.CellRef, o.WallMs = c.ref, msSince(t0)
		c.out = o
	}
	if ctx.Err() != nil {
		fin(Outcome{Status: StatusSkipped, Kind: KindCancelled})
		return
	}
	var slow *time.Timer
	if cfg.Watchdog > 0 {
		slow = time.AfterFunc(cfg.Watchdog, func() {
			cfg.emit(Event{Kind: EventSlow, Cell: c.ref, Wall: time.Since(t0)})
		})
	}
	runCtx, stopGrace := ctx, func() {}
	if cfg.Grace > 0 {
		runCtx, stopGrace = graceContext(ctx, cfg.Grace)
	}
	r, err := runWithContext(runCtx, s, c.exp, cfg.Timeout)
	stopGrace()
	if slow != nil {
		slow.Stop()
	}
	if err != nil {
		ce := cellError(c.ref, err)
		status := StatusFailed
		if ce.Kind == KindCancelled {
			status = StatusCancelled
		}
		fin(Outcome{Status: status, Kind: ce.Kind, Err: err.Error(), Stack: ce.Stack, Attempts: 1})
		return
	}
	if cfg.RunDir != "" {
		if werr := writeCheckpoint(cfg.RunDir, c.ref, r); werr != nil {
			c.cpErr = werr
		} else {
			cfg.emit(Event{Kind: EventCheckpoint, Cell: c.ref})
		}
	}
	c.res, c.done = r, true
	fin(Outcome{Status: StatusOK, Attempts: 1})
}

// runWithContext runs one experiment on the scenario under ctx, with an
// optional per-attempt deadline. The experiment body runs in its own
// goroutine: a panic inside it is captured with its goroutine stack and
// returned as a *par.PanicError wrapped in the experiment's ID, and a
// cancellation or deadline returns at once with the context's error. The
// goroutine cannot be preempted, so it is abandoned and runs on beside
// the scenario's other cells.
func runWithContext(ctx context.Context, s *core.Scenario, e core.Experiment, timeout time.Duration) (core.Result, error) {
	if err := ctx.Err(); err != nil {
		return core.Result{}, fmt.Errorf("harness: experiment %s: %w", e.ID, err)
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	type outcome struct {
		r   core.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			// Same capture shape as internal/par: the deferred recover runs
			// on the panicking goroutine's stack before unwinding, so the
			// trace includes the panic site.
			if p := recover(); p != nil {
				buf := make([]byte, 16<<10)
				buf = buf[:runtime.Stack(buf, false)]
				ch <- outcome{err: fmt.Errorf("harness: experiment %s: %w",
					e.ID, &par.PanicError{Value: p, Stack: buf})}
			}
		}()
		r, err := e.Run(ctx, s)
		ch <- outcome{r: r, err: err}
	}()
	select {
	case o := <-ch:
		return o.r, o.err
	case <-ctx.Done():
		// The experiment may have delivered its outcome in the same instant
		// the context died; prefer the real outcome so a simultaneous drain
		// cannot mask an actual failure (or discard a finished result).
		select {
		case o := <-ch:
			return o.r, o.err
		default:
		}
		return core.Result{}, fmt.Errorf("harness: experiment %s: %w", e.ID, ctx.Err())
	}
}

// graceContext returns a context that outlives parent's cancellation by
// grace, so a drain lets in-flight work finish (and checkpoint) instead
// of abandoning it mid-computation. The returned stop function releases
// the watcher and cancels the derived context.
func graceContext(parent context.Context, grace time.Duration) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.WithoutCancel(parent))
	stop := context.AfterFunc(parent, func() {
		time.AfterFunc(grace, cancel)
	})
	return ctx, func() {
		stop()
		cancel()
	}
}
