// Command beatbgpd is the long-running route/latency oracle: it builds
// a world from the content-keyed build graph, freezes it, and answers
// concurrent HTTP/JSON queries until drained.
//
// Usage:
//
//	beatbgpd [-addr HOST:PORT] [-seed N] [-days N] [-eyeballs N]
//	         [-workers N] [-hold SEC] [-bfd]
//	         [-max-inflight N] [-max-queue N] [-query-timeout DUR]
//	         [-grace DUR] [-chaos-seed N] [-chaos-latency-p P]
//	         [-chaos-latency-ms MS] [-chaos-err-p P] [-chaos-stall-p P]
//	         [-chaos-stall-ms MS]
//
// The query surface (see internal/serve):
//
//	GET  /world                          world shape + content key
//	GET  /catchment?prefix=N[&epoch=E]   client prefix → front-end site
//	GET  /latency?prefix=N[&t=MIN]       BGP-preferred vs best alternate
//	POST /whatif                         deltas + nested query on a scratch chain
//	GET  /epoch · POST /epoch            read / advance the live fault timeline
//	GET  /healthz · GET /readyz          liveness / readiness probes
//
// Every response is byte-identical to the library answer for the same
// query against the same world key — concurrency and restarts never
// change bytes. Under overload the daemon sheds with typed 429s (bounded
// admission), cuts stalled work at the -query-timeout deadline (504),
// and serves degraded answers ("degraded":true, a last-good epoch) when
// a repair chain is failing behind its circuit breaker. SIGINT/SIGTERM
// drains gracefully: /readyz flips to 503, in-flight requests get the
// -grace period to finish, a second signal force-quits. Status lines go
// to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"beatbgp"
	"beatbgp/internal/serve"
	"beatbgp/internal/serve/chaos"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "beatbgpd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8379", "listen address for the query surface")
		seed     = flag.Uint64("seed", 42, "world seed; the frozen world is deterministic in it")
		days     = flag.Int("days", 0, "override Edge-Fabric trace length in days (default 10)")
		eyeballs = flag.Int("eyeballs", 0, "override eyeball ASes per region (default 20)")
		workers  = flag.Int("workers", 0, "parallel worker budget for the world build; 0 means GOMAXPROCS")
		hold     = flag.Float64("hold", 0, "BGP hold timer in seconds for the session layer; 0 means the 36s default")
		bfd      = flag.Bool("bfd", false, "enable BFD fast failure detection on every session")

		maxInflight = flag.Int("max-inflight", 0, "admission limit on concurrently executing queries; 0 means unlimited")
		maxQueue    = flag.Int("max-queue", 0, "admission waiting-room depth beyond -max-inflight; excess sheds with 429")
		queryTO     = flag.Duration("query-timeout", 0, "per-query deadline (e.g. 250ms); 0 means none")
		grace       = flag.Duration("grace", 3*time.Second, "drain grace period for in-flight requests on SIGINT/SIGTERM")

		chaosSeed    = flag.Uint64("chaos-seed", 0, "chaos injector seed (used when any chaos probability is set)")
		chaosLatP    = flag.Float64("chaos-latency-p", 0, "chaos: per-query probability of injected transport latency")
		chaosLatMs   = flag.Float64("chaos-latency-ms", 0, "chaos: mean injected transport latency in ms")
		chaosErrP    = flag.Float64("chaos-err-p", 0, "chaos: per-attempt probability of an injected repair-chain error")
		chaosStallP  = flag.Float64("chaos-stall-p", 0, "chaos: per-attempt probability of a repair-chain stall")
		chaosStallMs = flag.Float64("chaos-stall-ms", 0, "chaos: repair-chain stall duration in ms")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (flags only)", flag.Args())
	}
	if *days < 0 || *eyeballs < 0 || *workers < 0 || *hold < 0 {
		return fmt.Errorf("-days, -eyeballs, -workers and -hold must be non-negative")
	}
	if *maxInflight < 0 || *maxQueue < 0 || *queryTO < 0 || *grace < 0 {
		return fmt.Errorf("-max-inflight, -max-queue, -query-timeout and -grace must be non-negative")
	}
	chaosCfg := chaos.Config{
		Seed:          *chaosSeed,
		LatencyP:      *chaosLatP,
		LatencyMeanMs: *chaosLatMs,
		RepairErrP:    *chaosErrP,
		StallP:        *chaosStallP,
		StallMs:       *chaosStallMs,
	}
	if err := chaosCfg.Validate(); err != nil {
		return err
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

	t0 := time.Now()
	s, err := beatbgp.NewScenario(cfg)
	if err != nil {
		return err
	}
	w, err := s.Freeze()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "beatbgpd: world %s frozen in %v (%d ASes, %d prefixes, %d epochs)\n",
		w.Key, time.Since(t0).Round(time.Millisecond), w.Topo.NumASes(), len(w.Topo.Prefixes), w.Epochs.Len())

	srv := serve.New(w,
		serve.WithAdmission(*maxInflight, *maxQueue),
		serve.WithQueryTimeout(*queryTO),
	)
	if chaosCfg.LatencyP > 0 || chaosCfg.RepairErrP > 0 || chaosCfg.StallP > 0 {
		inj, err := chaos.New(chaosCfg)
		if err != nil {
			return err
		}
		srv.SetChaos(inj)
		fmt.Fprintln(os.Stderr, "beatbgpd: chaos injection ENABLED (deterministic; for soak testing, not production)")
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "beatbgpd: serving on http://%s\n", bound)

	// Drain on SIGINT/SIGTERM: readiness flips to draining, accepting
	// stops, in-flight requests get -grace to finish, then the rest are
	// cut. A second signal force-quits immediately.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	got := <-sig
	fmt.Fprintf(os.Stderr, "beatbgpd: %v: draining (in-flight requests get %v; repeat to force-quit)\n", got, *grace)
	go func() {
		<-sig
		os.Exit(130)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "beatbgpd: drained")
	return nil
}
