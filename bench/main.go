// Command bench is the repository's benchmark: four workloads, ten
// end-to-end metrics taken across process boundaries, and per-layer
// probes recorded from outside the program. See README.md.
//
//	go run -C bench . -seed 42                      every workload, timed then traced
//	go run -C bench . -workload W -seed S -seconds N -trace 0|1
//	                                                one run; last stdout line is the result JSON
//	go run -C bench . -runs 10 -out a.json          ten seeds per workload, for -compare
//	go run -C bench . -compare a.json b.json        apply BENCHMARK.json's bounds
package main

import (
	"flag"
	"fmt"
	"os"
)

// defaultSeconds mirrors BENCHMARK.json's run_seconds.
const defaultSeconds = 25

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "run one workload (serve_steady, serve_churn, route_sweep, campaign) and end with the result JSON line; default: all")
		seed     = flag.Uint64("seed", 42, "workload seed: request streams, samples, the synthetic graph and its flap set derive from it")
		seconds  = flag.Int("seconds", defaultSeconds, "measuring time of one run")
		repeats  = flag.Int("repeats", 0, "fix the number of passes per run instead of fitting them to -seconds")
		trace    = flag.Int("trace", -1, "0: timed run only, 1: traced layer pass only, default: both")
		runs     = flag.Int("runs", 1, "all-workloads mode: timed runs per workload, on seeds seed, seed+1, ...")
		out      = flag.String("out", "", "all-workloads mode: write the result file -compare reads")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		child    = flag.String("child", "", "internal: run a workload's in-process body as the measured child (route_sweep)")
	)
	flag.Parse()
	if *seconds < 1 || *repeats < 0 || *runs < 1 || *trace < -1 || *trace > 1 {
		return fmt.Errorf("-seconds and -runs must be positive, -repeats non-negative, -trace 0 or 1")
	}
	b := budget{seconds: float64(*seconds), repeats: *repeats}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case flag.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	case *child == wlSweep:
		return sweepChild(*seed, b, *trace == 1)
	case *child != "":
		return fmt.Errorf("-child %q: only %s runs as a child of the driver", *child, wlSweep)
	case *workload != "":
		return runOne(*workload, *seed, b, *trace)
	default:
		return runAll(*seed, b, *trace, *runs, *out)
	}
}
