package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"beatbgp/internal/bgp"
	"beatbgp/internal/delta"
	"beatbgp/internal/matbgp"
)

// route_sweep: the batch route engine at internet scale, alone. No
// world, no serving layer, no harness: a 100k-AS synthetic graph is
// lowered by matbgp.New and the run builds a sample of its distinct
// columns (phase 1, the layer read), then flaps transit uplinks across
// the kept repairers on one shared scratch (phase 2, the same layer
// written), so an arena that speeds builds but slows repair shows.
// There is no public batch-sweep entry point at this scale yet; the
// columns are built one by one through Graph.NewRepairer, which is what
// such an entry point would call.
//
// The sweep runs in a child process of its own (bench -child), so its
// CPU and peak RSS are read from the child's rusage like every other
// workload's.

const (
	// The column sample: every tier-1, and a seeded draw of transits
	// and of stub classes (one representative each). 100 columns of
	// the graph's 1010 distinct ones a pass, so that a run takes its
	// medians over six or seven passes.
	sweepTransitCols = 30
	sweepStubCols    = 60
	// sweepFlaps is how many transit uplinks phase 2 takes down and up:
	// both uplinks of sweepFlaps/2 sampled transits. A transit reaches
	// any origin outside its own cone over exactly one of its two
	// uplinks, so of each such pair one flap changes the column and one
	// is rejected, and the share of affected pairs does not depend on
	// how the seed's tie-breaks fell.
	sweepFlaps = 48
	// sweepConeFlaps of those transits are sampled origins themselves
	// (with no sampled stub below them), the rest have no sampled origin
	// in their cone. An uplink above the origin carries the routes of
	// the part of the graph that enters over it, so its flap re-routes
	// tens of thousands of ASes (15 to 35 ms) where any other re-routes
	// the transit and its customers (≈0.13 ms); left to chance, between
	// 7 and 16 such flaps fell in a pass and made up a third to three
	// fifths of phase 2, seed by seed. An origin's two uplinks split the
	// rest of the graph between them, so flapping both re-routes all of
	// it once, however the seed split it.
	sweepConeFlaps = 4
	// sweepRebuilds is how many repaired-down columns a pass checks
	// against a from-scratch build under the same down set.
	sweepRebuilds = 8
	// sweepLimit is the per-column limit slo_ok_pct is read against.
	sweepLimit = 60 * time.Millisecond
	// sweepSetups is how many times the child generates and lowers the
	// graph to take setup_s as a median.
	sweepSetups = 15
)

// sweepPlan is what one seed asks of the graph.
type sweepPlan struct {
	origins []int // AS ids whose columns are built, in build order
	flaps   []int // link ids taken down and up
}

func drawPlan(rng *rand.Rand, sg synthGraph) sweepPlan {
	var p sweepPlan
	inCone := make([]int, synthTransit) // sampled origins at or below each transit
	isOrigin := make([]bool, synthTransit)
	for a := 0; a < synthTier1; a++ {
		p.origins = append(p.origins, a)
	}
	for _, t := range rng.Perm(synthTransit)[:sweepTransitCols] {
		p.origins = append(p.origins, transitAS(t))
		inCone[t]++
		isOrigin[t] = true
	}
	for _, s := range rng.Perm(synthTransit)[:sweepStubCols] {
		p.origins = append(p.origins, stubAS(s)) // stub s < synthTransit is its class's first member
		for k := 0; k < 2; k++ {
			inCone[sg.links[stubLink(s, k)].B-synthTier1]++
		}
	}
	var cone, clear []int
	for _, t := range rng.Perm(synthTransit) {
		switch {
		case isOrigin[t] && inCone[t] == 1 && len(cone) < sweepConeFlaps:
			cone = append(cone, t)
		case inCone[t] == 0 && len(clear) < sweepFlaps/2-sweepConeFlaps:
			clear = append(clear, t)
		}
	}
	for _, t := range append(cone, clear...) {
		p.flaps = append(p.flaps, uplink(t, 0), uplink(t, 1))
	}
	return p
}

// sweepPass is what one pass over the plan measured.
type sweepPass struct {
	BuildS    float64     `json:"build_s"`  // phase 1 wall
	ColMs     []float64   `json:"col_ms"`   // per column
	Checksum  uint64      `json:"checksum"` // over every built column
	RepairS   float64     `json:"repair_s"` // phase 2 wall
	Pairs     int         `json:"pairs"`    // down+up pairs applied
	Affected  int         `json:"affected"` // of which the column changed
	RebuildMs []float64   `json:"rebuild"`  // from-scratch builds under a down set
	Bad       []string    `json:"bad"`      // failed output checks
	Checks    int         `json:"checks"`   // output checks made
	Steal     float64     `json:"steal"`    // share of the pass's CPU ticks the host gave away
	HitUs     []float64   `json:"-"`        // traced: per affected pair
	MissUs    []float64   `json:"-"`        // traced: per unaffected pair
	Mem       [2]memDelta `json:"-"`        // traced: phase 1, phase 2
}

// sweepOut is the child's whole report, one JSON line on its stdout.
type sweepOut struct {
	SetupS []float64          `json:"setup_s"`
	Passes []sweepPass        `json:"passes"`
	Layers map[string]float64 `json:"layers,omitempty"`
	Trace  string             `json:"trace,omitempty"`
}

// memDelta is what a stretch of code allocated.
type memDelta struct{ mallocs, bytes uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.Mallocs, ms.TotalAlloc}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes}
}

// colHash folds a packed column into one word, position-sensitive.
func colHash(col []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range col {
		h = (h ^ uint64(w)) * 1099511628211
	}
	return h
}

// runPass builds every column of the plan, then flaps every uplink of
// the plan across all of them, then checks: down+up left every column
// as built, and sweepRebuilds repaired-down columns equal a from-scratch
// build under the same down set. tr may be nil.
func runPass(g *matbgp.Graph, sg synthGraph, plan sweepPlan, tr *tracer) (sweepPass, error) {
	var ps sweepPass
	box := watchSteal()
	reps := make([]*matbgp.Repairer, len(plan.origins))
	anns := make([][]bgp.Announcement, len(plan.origins))
	sc := g.NewRepairScratch()

	root := tr.begin("sweep.build", -1, -1)
	m0 := memNow()
	t0 := time.Now()
	for i, o := range plan.origins {
		anns[i] = []bgp.Announcement{{Origin: o}}
		c0 := time.Now()
		sp := tr.begin("matbgp.column", root, i)
		r, err := g.NewRepairer(anns[i], nil)
		tr.end(sp)
		if err != nil {
			return ps, fmt.Errorf("column of AS %d: %w", o, err)
		}
		ps.ColMs = append(ps.ColMs, float64(time.Since(c0))/float64(time.Millisecond))
		reps[i] = r.WithScratch(sc)
	}
	ps.BuildS = time.Since(t0).Seconds()
	ps.Mem[0] = memNow().since(m0)
	tr.end(root)
	built := make([]uint64, len(reps))
	for i, r := range reps {
		built[i] = colHash(r.Column())
		ps.Checksum ^= built[i] * uint64(2*i+1)
	}

	// A link's removal changes a column exactly when one of the link's
	// two ends routed over it, and then that end's own word changes;
	// so two words tell an affected column from one that rejected the
	// delta, without knowing the word layout.
	type hit struct{ col, flap int }
	var hits []hit
	root = tr.begin("sweep.repair", -1, -1)
	m0 = memNow()
	t0 = time.Now()
	for fi, f := range plan.flaps {
		a, b := sg.links[f].A, sg.links[f].B
		down, up := delta.Delta{Down: []int{f}}, delta.Delta{Up: []int{f}}
		flapHit := false
		for i, r := range reps {
			col := r.Column()
			wa, wb := col[a], col[b]
			p0 := time.Now()
			sp := tr.begin("matbgp.repair_miss", root, fi*len(reps)+i)
			if err := r.Apply(down); err != nil {
				return ps, fmt.Errorf("column %d, link %d down: %w", i, f, err)
			}
			col = r.Column()
			affected := col[a] != wa || col[b] != wb
			if err := r.Apply(up); err != nil {
				return ps, fmt.Errorf("column %d, link %d up: %w", i, f, err)
			}
			tr.end(sp)
			ps.Pairs++
			if affected {
				ps.Affected++
				if tr != nil {
					tr.spans[sp].Name = "matbgp.repair_hit"
					ps.HitUs = append(ps.HitUs, float64(time.Since(p0))/float64(time.Microsecond))
				}
				if !flapHit && len(hits) < sweepRebuilds {
					hits, flapHit = append(hits, hit{i, f}), true
				}
			} else if tr != nil {
				ps.MissUs = append(ps.MissUs, float64(time.Since(p0))/float64(time.Microsecond))
			}
		}
	}
	ps.RepairS = time.Since(t0).Seconds()
	ps.Mem[1] = memNow().since(m0)
	tr.end(root)
	ps.Steal = box.share()

	for i, r := range reps {
		ps.Checks++
		if colHash(r.Column()) != built[i] {
			ps.Bad = append(ps.Bad, fmt.Sprintf("column %d (AS %d): down+up over %d flaps is not the identity", i, plan.origins[i], len(plan.flaps)))
		}
	}
	for _, h := range hits {
		r := reps[h.col]
		if err := r.Apply(delta.Delta{Down: []int{h.flap}}); err != nil {
			return ps, err
		}
		c0 := time.Now()
		fresh, err := g.NewRepairer(anns[h.col], map[int]bool{h.flap: true})
		if err != nil {
			return ps, err
		}
		ps.RebuildMs = append(ps.RebuildMs, float64(time.Since(c0))/float64(time.Millisecond))
		ps.Checks++
		if !equalCols(r.Column(), fresh.Column()) {
			ps.Bad = append(ps.Bad, fmt.Sprintf("column %d (AS %d): repaired with link %d down differs from a rebuild", h.col, plan.origins[h.col], h.flap))
		}
		if err := r.Apply(delta.Delta{Up: []int{h.flap}}); err != nil {
			return ps, err
		}
	}
	if len(hits) < sweepRebuilds {
		ps.Checks++
		ps.Bad = append(ps.Bad, fmt.Sprintf("only %d of %d flaps affected a sampled column: nothing to check a rebuild against", len(hits), sweepRebuilds))
	}
	return ps, nil
}

func equalCols(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sweepChild is the measured process: generate and lower the graph
// (sweepSetups times, for setup_s), then run passes over the plan until
// the budget is used. Traced, it runs one pass untraced and one traced,
// and reports the layer metrics.
func sweepChild(seed uint64, b budget, traced bool) error {
	var out sweepOut
	var sg synthGraph
	var g *matbgp.Graph
	var lowerMs []float64
	for i := 0; i < sweepSetups; i++ {
		t0 := time.Now()
		sg = synth(subRand(seed, 4))
		t1 := time.Now()
		var err error
		if g, err = matbgp.New(sg.n, sg.asn, sg.links); err != nil {
			return err
		}
		out.SetupS = append(out.SetupS, time.Since(t0).Seconds())
		lowerMs = append(lowerMs, float64(time.Since(t1))/float64(time.Millisecond))
	}
	plan := drawPlan(subRand(seed, 5), sg)

	if traced {
		plain, err := runPass(g, sg, plan, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		ps, err := runPass(g, sg, plan, tr)
		if err != nil {
			return err
		}
		out.Passes = []sweepPass{plain, ps}
		out.Layers = sweepLayers(ps, plain, lowerMs)
		root, err := repoRoot()
		if err != nil {
			return err
		}
		if out.Trace, err = writeTrace(root, traceFile{Workload: wlSweep, Seed: seed, Counts: out.Layers, Spans: tr.spans}); err != nil {
			return err
		}
	} else {
		start := time.Now()
		var last time.Duration
		for pass := 0; b.more(pass, time.Since(start), last); pass++ {
			t0 := time.Now()
			ps, err := runPass(g, sg, plan, nil)
			if err != nil {
				return err
			}
			last = time.Since(t0)
			out.Passes = append(out.Passes, ps)
		}
	}
	js, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(js))
	return err
}

// sweepLayers turns a traced pass (and the untraced pass before it)
// into the layer metrics of route_sweep.
func sweepLayers(ps, plain sweepPass, lowerMs []float64) map[string]float64 {
	cols := append([]float64(nil), ps.ColMs...)
	sort.Float64s(cols)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	nCol := float64(len(ps.ColMs))
	m := map[string]float64{
		"matbgp.lower_ms":               median(lowerMs),
		"matbgp.column_ms":              percentile(cols, 0.5),
		"matbgp.column_p99_ms":          percentile(cols, tailPercentile(len(cols))),
		"matbgp.column_allocs":          float64(ps.Mem[0].mallocs) / nCol,
		"matbgp.column_bytes":           float64(ps.Mem[0].bytes) / nCol,
		"runtime.alloc_gb":              float64(ms.TotalAlloc) / 1e9,
		"runtime.gc_cycles":             float64(ms.NumGC),
		"runtime.gc_pause_ms":           float64(ms.PauseTotalNs) / 1e6,
		"matbgp.repair_hit_us":          median(ps.HitUs),
		"matbgp.repair_miss_us":         median(ps.MissUs),
		"matbgp.repair_affected_share":  100 * float64(ps.Affected) / float64(ps.Pairs),
		"matbgp.repair_allocs_per_pair": float64(ps.Mem[1].mallocs) / float64(ps.Affected),
		"matbgp.repair_bytes_per_pair":  float64(ps.Mem[1].bytes) / float64(ps.Affected),
		"trace.overhead_pct":            100 * (1 - (nCol/ps.BuildS)/(float64(len(plain.ColMs))/plain.BuildS)),
	}
	return m
}

// sweepChildRun runs the child and returns its report and what it cost.
func sweepChildRun(e env, seed uint64, b budget, traced bool) (sweepOut, usage, error) {
	var out sweepOut
	args := []string{"-child", wlSweep, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(b.seconds, 'g', -1, 64), "-repeats", strconv.Itoa(b.repeats)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(e.self, args...)
	cmd.Dir = e.root
	var so bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, os.Stderr
	if err := cmd.Run(); err != nil {
		return out, usage{}, fmt.Errorf("route_sweep child: %w", err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(so.Bytes()), &out); err != nil {
		return out, usage{}, fmt.Errorf("route_sweep child: report: %w", err)
	}
	return out, usageOf(cmd.ProcessState), nil
}

// sweepChecks counts a child's output checks into the report and
// requires every pass to have built the same columns.
func sweepChecks(rep *report, out sweepOut) {
	for i, ps := range out.Passes {
		rep.count(ps.Checks, len(ps.Bad))
		for _, bad := range ps.Bad {
			rep.notef("CHECK FAILED: pass %d: %s", i, bad)
		}
		rep.check(ps.Checksum == out.Passes[0].Checksum, "pass %d built columns with checksum %016x, pass 0 %016x", i, ps.Checksum, out.Passes[0].Checksum)
	}
}

func runSweep(e env, seed uint64, b budget) (*report, error) {
	rep := newReport(wlSweep)
	out, u, err := sweepChildRun(e, seed, b, false)
	if err != nil {
		return nil, err
	}
	sweepChecks(rep, out)
	var colsPerS, pairsPerS, p50s, tails, slo, steal []float64
	var rebuilds []float64
	var tailQ float64
	columns := 0
	for _, ps := range out.Passes {
		n := len(ps.ColMs)
		columns += n
		rep.count(n, 0)
		colsPerS = append(colsPerS, float64(n)/ps.BuildS)
		pairsPerS = append(pairsPerS, float64(ps.Affected)/ps.RepairS)
		cols := append([]float64(nil), ps.ColMs...)
		sort.Float64s(cols)
		tailQ = tailPercentile(n)
		p50s = append(p50s, percentile(cols, 0.5))
		tails = append(tails, percentile(cols, tailQ))
		limitMs := float64(sweepLimit) / float64(time.Millisecond)
		slo = append(slo, 100*float64(sort.SearchFloat64s(cols, limitMs+1e-9))/float64(n))
		rebuilds = append(rebuilds, ps.RebuildMs...)
		steal = append(steal, ps.Steal)
	}
	p0 := out.Passes[0]
	rep.notef("%d-AS synthetic graph; %d passes of %d columns, then %d uplink flaps x %d repairers (%d pairs, %d affected); column limit %v",
		synthTier1+synthTransit+synthStub, len(out.Passes), len(p0.ColMs), sweepFlaps, len(p0.ColMs), p0.Pairs, p0.Affected, sweepLimit)
	rep.notef("column checksum %016x", p0.Checksum)

	keep := quietPasses(rep, "passes", steal)
	rep.overRepeats("setup_s", out.SetupS, "")
	rep.overRepeats("ops_per_s", pick(colsPerS, keep), "")
	rep.overRepeats("repairs_per_s", pick(pairsPerS, keep), "affected down+up pairs per second of phase 2")
	rep.overRepeats("p50_ms", pick(p50s, keep), "")
	rep.overRepeats("p99_ms", pick(tails, keep), tailNote(tailQ)+" of each pass")
	rep.set("whatif_p50_ms", median(rebuilds), len(rebuilds), "from-scratch column under a down set")
	rep.overRepeats("slo_ok_pct", pick(slo, keep), "")
	rep.set("cpu_ms_per_op", float64(u.cpu)/float64(time.Millisecond)/float64(columns), columns, "child CPU over columns built")
	rep.set("rss_peak_mb", u.rssMB, 1, "")
	rep.set("ok_pct", rep.okPct(), rep.attempted, "")
	return rep, nil
}

func traceSweep(e env, seed uint64, b budget) (*report, error) {
	rep := newReport(wlSweep)
	out, _, err := sweepChildRun(e, seed, b, true)
	if err != nil {
		return nil, err
	}
	sweepChecks(rep, out)
	traced := out.Passes[len(out.Passes)-1]
	rep.count(len(traced.ColMs), 0)
	for name, v := range out.Layers {
		rep.set(name, v, layerSamples(name, traced), "")
	}
	rep.notef("one untraced pass, then one traced; spans in %s", out.Trace)
	return rep, nil
}

// layerSamples is the sample count behind a route_sweep layer metric.
func layerSamples(name string, ps sweepPass) int {
	switch name {
	case "matbgp.lower_ms":
		return sweepSetups
	case "matbgp.repair_hit_us", "matbgp.repair_allocs_per_pair", "matbgp.repair_bytes_per_pair":
		return ps.Affected
	case "matbgp.repair_miss_us":
		return ps.Pairs - ps.Affected
	case "matbgp.repair_affected_share":
		return ps.Pairs
	case "runtime.alloc_gb", "runtime.gc_cycles", "runtime.gc_pause_ms":
		return 1
	}
	return len(ps.ColMs)
}
