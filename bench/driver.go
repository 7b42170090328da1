package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// header records where and how a result was measured.
type header struct {
	Seed       uint64 `json:"seed"`
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Network    string `json:"network"`
	Seconds    int    `json:"seconds"`
	Repeats    string `json:"repeats"`
}

func newHeader(root string, seed uint64, b budget) header {
	h := header{
		Seed:       seed,
		Commit:     "unknown (not a git checkout)",
		Go:         runtime.Version(),
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Network:    "loopback, not a wire: one load process, at most nproc connections",
		Seconds:    int(b.seconds),
		Repeats:    "fitted to -seconds",
	}
	if b.repeats > 0 {
		h.Repeats = strconv.Itoa(b.repeats) + " per run"
	}
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if cpuinfo, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(cpuinfo), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# bench: seed=%d commit=%s %s\n", h.Seed, h.Commit, h.Go)
	fmt.Fprintf(w, "# cpu=%q nproc=%d GOMAXPROCS=%d\n", h.CPU, h.NProc, h.GOMAXPROCS)
	fmt.Fprintf(w, "# network: %s\n", h.Network)
	fmt.Fprintf(w, "# measuring %ds per run, repeats %s (phase lengths are in each workload's notes)\n", h.Seconds, h.Repeats)
}

// cpuStolen reads /proc/stat's aggregate line: the ticks the hypervisor
// ran other guests while this one had work (steal), and all ticks.
// Zeroes where there is no /proc/stat.
func cpuStolen() (stolen, all uint64) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			continue // the "cpu" label
		}
		all += v
		if i == 8 { // cpu user nice system idle iowait irq softirq steal
			stolen = v
		}
	}
	return stolen, all
}

// stealLimit is the share of a pass's CPU ticks the hypervisor may give
// to other guests before the pass counts as disturbed. On the
// calibration box steal comes in bursts of 5 to 15 s at 10 to 25 %, and
// the runs it hit read 20 to 40 % slower than the runs it spared; a
// quiet stretch reads under 1 %.
const stealLimit = 0.02

// stealWatch measures steal over a stretch of a run, so that a slow
// pass on a shared box can be told from a slow program.
type stealWatch struct{ stolen, all uint64 }

func watchSteal() stealWatch {
	s, a := cpuStolen()
	return stealWatch{s, a}
}

// share is the stolen share of all CPU ticks since the watch began.
func (w stealWatch) share() float64 {
	s, a := cpuStolen()
	if a <= w.all {
		return 0
	}
	return float64(s-w.stolen) / float64(a-w.all)
}

// quietPasses picks the passes a run takes its medians over, given each
// pass's stolen share: the quiet ones (under stealLimit), topped up with
// the least disturbed of the others until a third of the passes are in.
// Interference only ever slows a pass, so leaving disturbed passes out
// does not flatter the program; it reads it where the box let it run.
func quietPasses(rep *report, what string, steal []float64) []int {
	order := make([]int, len(steal))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	quiet := sort.Search(len(order), func(k int) bool { return steal[order[k]] >= stealLimit })
	keep := max(quiet, (len(order)+2)/3)
	if keep < len(order) {
		rep.notef("box: %d of %d %s ran with under %.0f%% steal; medians are over the %d least disturbed (up to %.1f%% steal)",
			quiet, len(order), what, 100*stealLimit, keep, 100*steal[order[keep-1]])
	}
	order = order[:keep]
	sort.Ints(order)
	return order
}

// pick returns the values of xs at the kept passes.
func pick(xs []float64, keep []int) []float64 {
	out := make([]float64, len(keep))
	for i, k := range keep {
		out[i] = xs[k]
	}
	return out
}

// worldSeed is the seed the program under test builds its world from.
// The serving workloads pin the default world (seed 42), whose size the
// workload definitions quote: the epoch count and fault set of a world
// decide how much work a request list is, so a per-run world would put
// world-to-world variation into every metric's spread. The campaign has
// no input but its seed, so it takes the run's.
func worldSeed(workload string, seed uint64) uint64 {
	if workload == wlCampaign {
		return seed
	}
	return 42
}

type workloadFuncs struct {
	timed, traced func(env, uint64, budget) (*report, error)
}

// env is what every workload body needs from the checkout.
type env struct {
	root string
	bins map[string]string
	self string // this executable, for workloads measured as a child of their own
}

var workloadTable = map[string]workloadFuncs{
	wlSteady:   {runSteady, traceSteady},
	wlChurn:    {runChurn, traceChurn},
	wlSweep:    {runSweep, traceSweep},
	wlCampaign: {runCampaign, traceCampaign},
}

func newEnv() (env, error) {
	root, err := repoRoot()
	if err != nil {
		return env{}, err
	}
	bins, err := buildBinaries(root)
	if err != nil {
		return env{}, err
	}
	self, err := os.Executable()
	if err != nil {
		return env{}, err
	}
	return env{root: root, bins: bins, self: self}, nil
}

// runOne is the pipeline's entry: one workload, one seed, timed or
// traced, ending with the result JSON as the last stdout line. With
// neither asked for explicitly it does both and ends with the timed
// run's line.
func runOne(workload string, seed uint64, b budget, trace int) error {
	fns, ok := workloadTable[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (valid: %s)", workload, strings.Join(workloads, ", "))
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	newHeader(e.root, seed, b).print(os.Stdout)
	var last *report
	lastDefs := endToEnd
	failed := 0
	if trace != 1 {
		fmt.Printf("\n== %s: timed run ==\n", workload)
		whole := watchSteal()
		rep, err := fns.timed(e, seed, b)
		if err != nil {
			return err
		}
		rep.notef("box: the hypervisor gave %.1f%% of this run's CPU time to other guests (/proc/stat steal)", 100*whole.share())
		rep.print(os.Stdout, endToEnd)
		last, failed = rep, failed+rep.failed
	}
	if trace != 0 {
		fmt.Printf("\n== %s: traced layer pass ==\n", workload)
		rep, err := fns.traced(e, seed, b)
		if err != nil {
			return err
		}
		rep.print(os.Stdout, perLayer)
		failed += rep.failed
		if last == nil {
			last, lastDefs = rep, perLayer
		}
	}
	line, err := last.resultLine(lastDefs)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if failed > 0 {
		return fmt.Errorf("%s: %d output check(s) or operation(s) failed", workload, failed)
	}
	return nil
}

// resultFile is what -out writes and -compare reads: per workload, the
// value of every end-to-end metric on each run, and the traced pass's
// layer metrics.
type resultFile struct {
	Header header                          `json:"header"`
	Runs   map[string]map[string][]float64 `json:"runs"`
	Layers map[string]map[string]float64   `json:"layers,omitempty"`
}

// runAll runs every workload as its own child process per run, passing
// the child's report through and collecting its result line.
func runAll(seed uint64, b budget, trace, runs int, out string) error {
	e, err := newEnv()
	if err != nil {
		return err
	}
	h := newHeader(e.root, seed, b)
	h.print(os.Stdout)
	res := resultFile{Header: h, Runs: map[string]map[string][]float64{}, Layers: map[string]map[string]float64{}}
	var failures []string
	one := func(workload string, s uint64, traced int) map[string]float64 {
		args := []string{"-workload", workload, "-seed", strconv.FormatUint(s, 10),
			"-seconds", strconv.Itoa(int(b.seconds)), "-repeats", strconv.Itoa(b.repeats), "-trace", strconv.Itoa(traced)}
		vals, err := runSelf(e.self, args)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s seed %d trace %d: %v", workload, s, traced, err))
		}
		return vals
	}
	for _, w := range workloads {
		if trace != 1 {
			res.Runs[w] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				for name, v := range one(w, seed+uint64(i), 0) {
					res.Runs[w][name] = append(res.Runs[w][name], v)
				}
			}
		}
		if trace != 0 {
			res.Layers[w] = one(w, seed, 1)
		}
	}
	if out != "" {
		js, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(js, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nresults written to %s\n", out)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d run(s) failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// runSelf runs this program with args, copies its stdout through minus
// the header it would repeat, and parses its last line as a result.
func runSelf(self string, args []string) (map[string]float64, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var so bytes.Buffer
	cmd.Stdout = &so
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&so)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" && !strings.HasPrefix(last, "# ") {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var line struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		fmt.Println(last)
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %v", err)
	}
	vals := map[string]float64{}
	for name, m := range line.Metrics {
		vals[name] = m.Value
	}
	return vals, runErr
}
