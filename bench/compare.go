package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkJSON is the part of BENCHMARK.json the driver reads: each
// end-to-end metric's direction and the share of the baseline's median
// by which it may get worse.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(root string) (benchmarkJSON, error) {
	var bj benchmarkJSON
	js, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bj, err
	}
	if err := json.Unmarshal(js, &bj); err != nil {
		return bj, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bj, nil
}

// spreadShare is the distance between the quartiles as a share of the
// median: the pipeline's measure of how far runs of one code disagree.
func spreadShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// verdict compares run set b against baseline a for one metric:
// "regressed" when b's median is worse than a's by more than the bound;
// "unresolved" when either set's own spread exceeds the bound, unless
// every run of b reads better than every run of a; otherwise "ok".
// worse is b's change in the bad direction as a share of a's median.
func verdict(a, b []float64, higherBetter bool, bound float64) (status string, worse float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if higherBetter {
			worse = -worse
		}
	}
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	allBetter := sb[len(sb)-1] < sa[0]
	if higherBetter {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case allBetter:
		return "ok", worse
	case spreadShare(a) > bound || spreadShare(b) > bound:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	}
	return "ok", worse
}

func readResults(path string) (resultFile, error) {
	var r resultFile
	js, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(js, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles applies BENCHMARK.json's bounds to two result files
// written by -out, one row per (metric, workload), and fails when any
// pair regressed or is unresolved.
func compareFiles(pathA, pathB string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bj, err := readBenchmarkJSON(root)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("# a: %s (commit %s, seed %d, %d s runs)\n# b: %s (commit %s, seed %d, %d s runs)\n",
		pathA, a.Header.Commit, a.Header.Seed, a.Header.Seconds, pathB, b.Header.Commit, b.Header.Seed, b.Header.Seconds)
	fmt.Printf("%-14s %-14s %5s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "unit", "median a", "median b", "worse", "spread a", "spread b", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, m := range bj.EndToEnd {
			xa, xb := a.Runs[w][m.Name], b.Runs[w][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-14s %-14s %5s %12s %12s %8s %8s %8s %6.1f%%  missing\n", w, m.Name, m.Unit, "-", "-", "-", "-", "-", 100*m.Bound)
				bad++
				continue
			}
			status, worse := verdict(xa, xb, m.Better == "higher", m.Bound)
			if status != "ok" {
				bad++
			}
			fmt.Printf("%-14s %-14s %5s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %6.1f%%  %s (n=%d,%d)\n",
				w, m.Name, m.Unit, median(xa), median(xb), 100*worse, 100*spreadShare(xa), 100*spreadShare(xb), 100*m.Bound, status, len(xa), len(xb))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pair(s) regressed, unresolved or missing", bad)
	}
	return nil
}
