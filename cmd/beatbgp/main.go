// Command beatbgp runs the paper's experiments under the crash-safe
// supervisor and prints the regenerated figure/table data.
//
// Usage:
//
//	beatbgp [-seed N] [-exp id[,id...]] [-list] [-days N] [-eyeballs N]
//	        [-seeds N] [-timeout D] [-watchdog D] [-workers N]
//	        [-run-dir DIR] [-resume DIR] [-hold SEC] [-bfd]
//
// With no -exp, every registered experiment runs in the paper's order.
// Every run is a supervised campaign over (experiment, seed) cells:
// panics inside an experiment are isolated (siblings keep running),
// -timeout bounds each cell, -watchdog warns about slow cells, and with
// -run-dir every completed cell is checkpointed so -resume can finish an
// interrupted or partly failed campaign without re-running done work.
// SIGINT/SIGTERM drains gracefully: in-flight experiments get a short
// grace period to finish (and checkpoint), then partial results print
// with an INCOMPLETE banner.
//
// Result data goes to stdout and is byte-identical at any worker count —
// a resumed campaign renders exactly what an uninterrupted one would.
// Status and timing lines go to stderr. Exit code 0 means every cell
// completed (or -h printed the usage), 2 means a partial run (see the
// manifest in the run directory), and 1 means a hard failure, bad flags
// included.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"beatbgp"
)

// drainGrace is how long in-flight experiments may keep running after a
// drain signal, so nearly-done work still lands in the checkpoint dir.
const drainGrace = 3 * time.Second

func main() {
	err := run(os.Args[1:])
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "beatbgp: %v\n", err)
	}
	os.Exit(exitCode(err))
}

// exitCode maps run's error to the process exit code: 0 for success and
// for -h, 2 for a partial campaign, 1 for everything else. Bad flags
// exit 1, so a stale flag can never read as a partial run.
func exitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, beatbgp.ErrPartial):
		return 2
	default:
		return 1
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("beatbgp", flag.ContinueOnError)
	var (
		seed     = fs.Uint64("seed", 42, "scenario seed; all results are deterministic in it")
		exp      = fs.String("exp", "", "comma-separated experiment IDs (default: all)")
		list     = fs.Bool("list", false, "list experiments and exit")
		days     = fs.Int("days", 0, "override Edge-Fabric trace length in days (default 10)")
		eyeballs = fs.Int("eyeballs", 0, "override eyeball ASes per region (default 20)")
		asJSON   = fs.Bool("json", false, "emit each result as JSON instead of text")
		outDir   = fs.String("out", "", "also write <id>.json and per-series/table CSVs into this directory")
		plot     = fs.Bool("plot", false, "render each series as an ASCII chart")
		seeds    = fs.Int("seeds", 0, "run each experiment across N seeds (fresh worlds) and report mean/min/max per table cell")
		timeout  = fs.Duration("timeout", 0, "per-attempt experiment deadline (e.g. 2m); 0 means none")
		watchdog = fs.Duration("watchdog", 0, "warn on stderr when an experiment outlives this; it keeps running")
		runDir   = fs.String("run-dir", "", "checkpoint directory: completed cells and the run manifest are persisted here")
		resume   = fs.String("resume", "", "resume an interrupted campaign from this run directory (implies -run-dir)")
		workers  = fs.Int("workers", 0, "parallel worker budget for sweeps and the experiment runner; 0 means GOMAXPROCS")
		hold     = fs.Float64("hold", 0, "BGP hold timer in seconds for the session layer (keepalive scales to hold/3); 0 means the 36s default")
		bfd      = fs.Bool("bfd", false, "enable BFD fast failure detection on every session (300ms x3 by default)")
		bstats   = fs.Bool("buildstats", false, "print the scenario build report (per-stage wall time, rebuilt vs reused)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range beatbgp.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	// Validate everything before the expensive scenario build so a typo
	// cannot produce minutes of partial output followed by a late error.
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (flags only)", fs.Args())
	}
	if *days < 0 || *eyeballs < 0 || *seeds < 0 || *workers < 0 || *hold < 0 {
		return fmt.Errorf("-days, -eyeballs, -seeds, -workers and -hold must be non-negative")
	}
	if *timeout < 0 || *watchdog < 0 {
		return fmt.Errorf("-timeout and -watchdog must be non-negative")
	}
	if *resume != "" {
		if *runDir != "" && *runDir != *resume {
			return fmt.Errorf("-resume %q conflicts with -run-dir %q", *resume, *runDir)
		}
		*runDir = *resume
	}
	known := map[string]bool{}
	for _, e := range beatbgp.Experiments() {
		known[e.ID] = true
	}
	var ids []string
	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if !known[id] {
				return fmt.Errorf("unknown experiment %q (see -list)", id)
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			return fmt.Errorf("-exp named no experiments")
		}
	}
	var seedList []uint64
	if *seeds > 1 {
		for i := 0; i < *seeds; i++ {
			seedList = append(seedList, *seed+uint64(i))
		}
	}

	cfg := beatbgp.Config{Seed: *seed, Workers: *workers}
	if *days > 0 {
		cfg.Workload.Days = *days
	}
	if *eyeballs > 0 {
		cfg.Topology.EyeballsPerRegion = *eyeballs
	}
	if *hold > 0 {
		cfg.Session.HoldSec = *hold
	}
	cfg.Session.BFD = *bfd

	// Drain on SIGINT/SIGTERM: cancel the campaign context, give in-flight
	// experiments drainGrace to finish, and still render partial results
	// plus the manifest. A second signal force-quits.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "beatbgp: %v: draining (in-flight experiments get %v; repeat to force-quit)\n", s, drainGrace)
		cancel()
		<-sig
		os.Exit(130)
	}()

	// Supervisor notifications are operator feedback: stderr, so stdout
	// stays a pure, byte-comparable result stream.
	events := make(chan beatbgp.SupervisorEvent, 256)
	eventsDone := make(chan struct{})
	go func() {
		defer close(eventsDone)
		for ev := range events {
			printEvent(ev, *bstats)
		}
	}()

	t0 := time.Now()
	rep, err := beatbgp.RunCampaign(ctx,
		beatbgp.Campaign{Base: cfg, IDs: ids, Seeds: seedList},
		beatbgp.SupervisorConfig{
			RunDir:   *runDir,
			Resume:   *resume != "",
			Timeout:  *timeout,
			Watchdog: *watchdog,
			Grace:    drainGrace,
			Events:   events,
		})
	close(events) // RunCampaign has returned; no sender remains
	<-eventsDone
	if err != nil {
		return err
	}

	for _, r := range rep.FinalResults() {
		fmt.Printf("\n# %s\n", r.ID)
		switch {
		case *asJSON:
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(r); err != nil {
				return fmt.Errorf("%s: %v", r.ID, err)
			}
		default:
			fmt.Print(r.Render())
			if *plot {
				for _, sr := range r.Series {
					fmt.Print(sr.Plot(64, 12))
				}
			}
		}
		if *outDir != "" {
			if err := writeResult(*outDir, r); err != nil {
				return fmt.Errorf("%s: %v", r.ID, err)
			}
		}
	}

	done := len(rep.Outcomes) - len(rep.IncompleteCells())
	fmt.Fprintf(os.Stderr, "# %d/%d cells completed in %v\n",
		done, len(rep.Outcomes), time.Since(t0).Round(time.Millisecond))
	if !rep.Complete() {
		fmt.Fprint(os.Stderr, rep.Banner())
		return fmt.Errorf("%w: %d of %d cells incomplete", beatbgp.ErrPartial,
			len(rep.IncompleteCells()), len(rep.Outcomes))
	}
	return nil
}

func printEvent(ev beatbgp.SupervisorEvent, bstats bool) {
	switch ev.Kind {
	case beatbgp.EventWorld:
		if ev.Err != "" {
			fmt.Fprintf(os.Stderr, "# world seed=%d build failed: %s\n", ev.Seed, ev.Err)
			return
		}
		fmt.Fprintf(os.Stderr, "# world seed=%d built in %v\n", ev.Seed, ev.Wall.Round(time.Millisecond))
		if bstats && ev.Detail != "" {
			fmt.Fprint(os.Stderr, ev.Detail)
		}
	case beatbgp.EventSlow:
		fmt.Fprintf(os.Stderr, "# slow: %s still running after %v\n",
			ev.Cell, ev.Wall.Round(time.Second))
	case beatbgp.EventCheckpoint:
		fmt.Fprintf(os.Stderr, "# checkpoint: %s\n", ev.Cell)
	case beatbgp.EventResumed:
		fmt.Fprintf(os.Stderr, "# resumed: %s (skipping re-run)\n", ev.Cell)
	case beatbgp.EventBadCheckpoint:
		fmt.Fprintf(os.Stderr, "# warning: unusable checkpoint for %s (%s); re-running\n", ev.Cell, ev.Err)
	}
}

var unsafePath = regexp.MustCompile(`[^a-zA-Z0-9._-]+`)

func slug(s string) string { return unsafePath.ReplaceAllString(s, "_") }

// writeResult persists one experiment's output: a JSON document plus one
// CSV per series and per table.
func writeResult(dir string, r beatbgp.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, r.ID+".json"), js, 0o644); err != nil {
		return err
	}
	for _, sr := range r.Series {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s.%s.csv", r.ID, slug(sr.Name))))
		if err != nil {
			return err
		}
		werr := sr.WriteCSV(f)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
	}
	for _, tb := range r.Tables {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s.%s.csv", r.ID, slug(tb.Name))))
		if err != nil {
			return err
		}
		werr := tb.WriteCSV(f)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
	}
	return nil
}
