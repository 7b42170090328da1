package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"beatbgp/internal/core"
)

// campaign: the researcher's end to end. One beatbgp process builds the
// world and runs all 30 experiments through harness → core →
// netsim/workload/cdn/par at the default worker budget. The route
// engine is a small share of it, so a matbgp win should not move these
// numbers and a par or netsim win should.

const (
	// campaignLimit is the per-cell limit slo_ok_pct is read against.
	campaignLimit = 5 * time.Second
	// campaignSetups is how many times the driver builds the scenario
	// to take setup_s as a median.
	campaignSetups = 15
)

// manifest is what the driver reads of <run-dir>/manifest.json.
type manifest struct {
	Workers  int     `json:"workers"`
	WallMs   float64 `json:"wall_ms"`
	Complete bool    `json:"complete"`
	Outcomes []struct {
		Experiment string  `json:"experiment"`
		Seed       uint64  `json:"seed"`
		Key        string  `json:"key"`
		Status     string  `json:"status"`
		WallMs     float64 `json:"wall_ms"`
	} `json:"outcomes"`
}

// unstableCells are experiments whose printed result is known to depend
// on how the campaign's cells interleave, so their section of stdout is
// left out of the equality checks (they must still end ok, and a section
// that moved is noted in the report). xavail: in about a quarter of
// 2-worker campaigns with -run-dir its downtime table differs from the
// serial run's. go build -race ./cmd/beatbgp shows the cause: a derived
// scenario's provider.buildWAN calls cable.(*Graph).AddEdge on the cable
// graph it shares with the base scenario, while other cells read paths
// from it. The fix belongs to the program; when it lands, empty this
// list.
var unstableCells = map[string]bool{"xavail": true}

// campaignRun is one beatbgp child.
type campaignRun struct {
	wall   time.Duration
	u      usage
	digest string             // SHA-256 over the stable sections of stdout
	moved  map[string]string  // digest of each unstable cell's section
	cellMs map[string]float64 // wall time by experiment id
	doneMs map[string]float64 // when the cell's result was on disk, from spawn
	ok     int                // cells with status ok
	within int                // of those, within campaignLimit
	m      manifest
}

// runCampaignChild runs beatbgp -seed S -run-dir <fresh dir> with the
// given worker budget (0: the program's default) and reads its stdout,
// its manifest, and the modification time of each cell's checkpoint
// file. The run directory is removed afterwards.
func runCampaignChild(e env, seed uint64, workers int) (campaignRun, error) {
	var r campaignRun
	if err := os.MkdirAll(filepath.Join(outDir(e.root), "runs"), 0o755); err != nil {
		return r, err
	}
	dir, err := os.MkdirTemp(filepath.Join(outDir(e.root), "runs"), "campaign-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	args := []string{"-seed", strconv.FormatUint(worldSeed(wlCampaign, seed), 10), "-run-dir", dir}
	if workers > 0 {
		args = append(args, "-workers", strconv.Itoa(workers))
	}
	spawned := time.Now()
	stdout, wall, u, err := runChild(e.bins["beatbgp"], args...)
	if err != nil {
		return r, err
	}
	r.wall, r.u = wall, u
	r.digest, r.moved = digestSections(stdout)
	js, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(js, &r.m); err != nil {
		return r, fmt.Errorf("manifest.json: %w", err)
	}
	r.cellMs, r.doneMs = map[string]float64{}, map[string]float64{}
	for _, o := range r.m.Outcomes {
		r.cellMs[o.Experiment] = o.WallMs
		if o.Status != "ok" {
			continue
		}
		r.ok++
		if o.WallMs <= float64(campaignLimit)/float64(time.Millisecond) {
			r.within++
		}
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("%s-%d-%s.json", o.Experiment, o.Seed, o.Key)))
		if err != nil {
			return r, fmt.Errorf("checkpoint of %s: %w", o.Experiment, err)
		}
		r.doneMs[o.Experiment] = float64(fi.ModTime().Sub(spawned)) / float64(time.Millisecond)
	}
	return r, nil
}

// digestSections splits the campaign's stdout at its "# <id>" section
// headers and hashes the stable sections together and each unstable
// cell's section alone.
func digestSections(stdout []byte) (stable string, unstable map[string]string) {
	isID := map[string]bool{}
	for _, id := range experimentIDs {
		isID[id] = true
	}
	all := sha256.New()
	unstable = map[string]string{}
	cell := ""
	var section []byte
	flush := func() {
		if unstableCells[cell] {
			sum := sha256.Sum256(section)
			unstable[cell] = hex.EncodeToString(sum[:8])
		} else {
			all.Write(section)
		}
		section = section[:0]
	}
	for _, line := range bytes.SplitAfter(stdout, []byte("\n")) {
		if id, ok := strings.CutPrefix(strings.TrimSuffix(string(line), "\n"), "# "); ok && isID[id] {
			flush()
			cell = id
		}
		section = append(section, line...)
	}
	flush()
	return hex.EncodeToString(all.Sum(nil)[:8]), unstable
}

// sameOutput checks a run's stdout against the reference run's: the
// stable sections must be identical; an unstable cell's section that
// differs is noted, not failed.
func sameOutput(rep *report, what string, r, ref campaignRun) {
	rep.check(r.digest == ref.digest, "%s printed stdout %s, the reference %s", what, r.digest, ref.digest)
	for id, d := range r.moved {
		if d != ref.moved[id] {
			rep.notef("%s: the %s section differs from the reference run's (known: see unstableCells)", what, id)
		}
	}
}

// checkCells requires the manifest to list exactly the experiments the
// metric names are fixed on.
func checkCells(rep *report, r campaignRun) {
	same := len(r.m.Outcomes) == len(experimentIDs)
	for i := 0; same && i < len(experimentIDs); i++ {
		same = r.m.Outcomes[i].Experiment == experimentIDs[i]
	}
	rep.check(same, "manifest lists %d cells, not the %d experiments this benchmark names (update experimentIDs and BENCHMARK.json)", len(r.m.Outcomes), len(experimentIDs))
}

// countCells counts a child's cells as attempts, the ones that did not
// end ok as failed.
func countCells(rep *report, r campaignRun) {
	rep.count(len(r.m.Outcomes), len(r.m.Outcomes)-r.ok)
}

// scenarioConfig is the world the campaign's beatbgp builds.
func scenarioConfig(seed uint64, eyeballs int) core.Config {
	cfg := core.Config{Seed: seed}
	cfg.Topology.EyeballsPerRegion = eyeballs
	return cfg
}

// timeScenarioBuilds builds the scenario n times and returns each wall
// time in seconds, with the last scenario.
func timeScenarioBuilds(cfg core.Config, n int) ([]float64, *core.Scenario, error) {
	var secs []float64
	var s *core.Scenario
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var err error
		if s, err = core.NewScenario(cfg); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, s, nil
}

// doneTimes returns, ascending, when each cell's result was on disk.
func (r campaignRun) doneTimes() []float64 {
	out := make([]float64, 0, len(r.doneMs))
	for _, ms := range r.doneMs {
		out = append(out, ms)
	}
	sort.Float64s(out)
	return out
}

func runCampaign(e env, seed uint64, b budget) (*report, error) {
	rep := newReport(wlCampaign)
	setup, _, err := timeScenarioBuilds(scenarioConfig(worldSeed(wlCampaign, seed), 0), campaignSetups)
	if err != nil {
		return nil, err
	}
	// The campaign's latencies are times to result: from spawn until a
	// share of the cells had their results on disk. A cell's own wall
	// time depends on which other cell had the second core; when its
	// result is out depends on all the work before it, as the total does.
	var cellsPerS, done50, doneTail, slo, cpuPerCell, rss, steal []float64
	var passes []campaignRun
	var tailQ float64
	start := time.Now()
	var last time.Duration
	for pass := 0; b.more(pass, time.Since(start), last); pass++ {
		box := watchSteal()
		r, err := runCampaignChild(e, seed, 0)
		if err != nil {
			return nil, err
		}
		last = r.wall
		if pass == 0 {
			checkCells(rep, r)
			rep.notef("beatbgp -seed %d, %d cells at %d workers; cell limit %v", worldSeed(wlCampaign, seed), len(r.m.Outcomes), r.m.Workers, campaignLimit)
		}
		passes = append(passes, r)
		sameOutput(rep, fmt.Sprintf("pass %d", pass), r, passes[0])
		countCells(rep, r)
		cells := float64(len(r.m.Outcomes))
		done := r.doneTimes()
		tailQ = tailPercentile(len(done))
		cellsPerS = append(cellsPerS, float64(r.ok)/r.wall.Seconds())
		done50 = append(done50, percentile(done, 0.5))
		doneTail = append(doneTail, percentile(done, tailQ))
		slo = append(slo, 100*float64(r.within)/cells)
		cpuPerCell = append(cpuPerCell, float64(r.u.cpu)/float64(time.Millisecond)/cells)
		rss = append(rss, r.u.rssMB)
		steal = append(steal, box.share())
	}
	rep.notef("stdout digest %s", passes[0].digest)
	keep := quietPasses(rep, "passes", steal)

	// The fault studies are five small cells: each one's time is its
	// median over the passes, and the what-if side of the campaign is
	// read over those.
	var fault []float64
	faultSum := 0.0
	for _, id := range dynamicsIDs {
		var ms []float64
		for _, k := range keep {
			ms = append(ms, passes[k].cellMs[id])
		}
		fault = append(fault, median(ms))
		faultSum += median(ms)
	}

	rep.overRepeats("setup_s", setup, "")
	rep.overRepeats("ops_per_s", pick(cellsPerS, keep), "")
	rep.set("repairs_per_s", float64(len(fault))/(faultSum/1e3), len(fault)*len(keep), "fault-study cells per second of their own wall time, each its median over the passes")
	rep.overRepeats("p50_ms", pick(done50, keep), "from spawn until half the cells' results were on disk")
	rep.overRepeats("p99_ms", pick(doneTail, keep), "from spawn until "+tailNote(tailQ)+" of the cells' results were on disk")
	rep.set("whatif_p50_ms", median(fault), len(fault)*len(keep), "median fault-study cell, each its median over the passes")
	rep.overRepeats("slo_ok_pct", pick(slo, keep), "")
	rep.overRepeats("cpu_ms_per_op", pick(cpuPerCell, keep), "")
	rep.overRepeats("rss_peak_mb", pick(rss, keep), "")
	rep.set("ok_pct", rep.okPct(), rep.attempted, "")
	return rep, nil
}

// traceCampaign runs the campaign once at one worker and once at nproc:
// the per-cell times and the harness's own overhead come from the
// serial run (cells do not contend there), the scaling efficiency from
// the pair, and both must print the same bytes. The spans are the two
// child processes and, under the serial one, its cells laid end to end
// (the manifest records durations, not start times).
func traceCampaign(e env, seed uint64, b budget) (*report, error) {
	rep := newReport(wlCampaign)
	nproc := runtime.NumCPU()
	tr := newTracer()

	_, s, err := timeScenarioBuilds(scenarioConfig(worldSeed(wlCampaign, seed), 0), 1)
	if err != nil {
		return nil, err
	}
	if _, err := buildLayers(rep, s); err != nil {
		return nil, err
	}

	sp := tr.begin("campaign.workers_1", -1, 0)
	serial, err := runCampaignChild(e, seed, 1)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	checkCells(rep, serial)
	countCells(rep, serial)
	at := tr.spans[sp].Start
	sum := 0.0
	for _, o := range serial.m.Outcomes {
		d := int64(o.WallMs * 1e6)
		tr.spans = append(tr.spans, span{Name: "harness.cell." + o.Experiment, Start: at, End: at + d, Parent: sp, Req: 0})
		at += d
		sum += o.WallMs
		rep.set("harness.cell_ms."+o.Experiment, o.WallMs, 1, "")
	}
	rep.set("harness.overhead_ms", float64(serial.wall)/float64(time.Millisecond)-sum, 1, "process wall minus the sum of its cells, at one worker")

	sp = tr.begin("campaign.workers_n", -1, 1)
	par, err := runCampaignChild(e, seed, nproc)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	countCells(rep, par)
	sameOutput(rep, fmt.Sprintf("the run at %d workers", nproc), par, serial)
	rep.set("par.scaling_eff", serial.wall.Seconds()/(float64(nproc)*par.wall.Seconds()), 1,
		fmt.Sprintf("t1 %.2fs / (%d x t%d %.2fs)", serial.wall.Seconds(), nproc, nproc, par.wall.Seconds()))
	// Nothing runs traced inside the child: the spans are taken around
	// it, so tracing costs the campaign nothing.
	rep.set("trace.overhead_pct", 0, 1, "spans are recorded outside the child process")

	path, err := writeTrace(e.root, traceFile{Workload: wlCampaign, Seed: seed, Counts: rep.values(), Spans: tr.spans})
	if err != nil {
		return nil, err
	}
	rep.notef("beatbgp -seed %d at 1 and at %d workers, stdout digest %s; spans in %s", worldSeed(wlCampaign, seed), nproc, serial.digest, path)
	return rep, nil
}

// buildLayers reports the scenario build's stages and the freeze that
// follows it: what setup_s of the world-building workloads is made of.
func buildLayers(rep *report, s *core.Scenario) (*core.World, error) {
	br := s.BuildReport()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rep.set("core.build_total_ms", ms(br.Wall), 1, "")
	for _, st := range br.Stages {
		switch st.Stage {
		case core.StageTopology, core.StageProvider, core.StageCDN:
			rep.set("core.build_"+st.Stage+"_ms", ms(st.Wall), 1, "")
		}
	}
	t0 := time.Now()
	w, err := s.Freeze()
	if err != nil {
		return nil, err
	}
	rep.set("core.freeze_ms", ms(time.Since(t0)), 1, "")
	return w, nil
}
