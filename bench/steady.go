package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"time"
)

// serve_steady: a warm beatbgpd on the default-size world. Every chain
// is materialised before timing and the epoch cursor never moves during
// the steady phases, so per-request cost — HTTP decode/encode, the
// uncontended admission gate, chain-lookup hits, provider/netpath/netsim
// per-query work — is all there is and the route engine does nothing:
// the "smallest packet" case.

const (
	// steadyPasses is how many (closed loop, open loop, what-if) rounds
	// a run takes its medians over.
	steadyPasses = 10
	// sloRate is the frozen open-loop rate of the slo_ok_pct phase. The
	// 2-caller closed-loop capacity of the 2-core calibration box moves
	// between 3.9 k and 7.8 k req/s with its neighbours, so 2000 req/s
	// is 25 to 50 % of it; at 4000 req/s the two connections queue to a
	// tail that sits on the limit whenever the box is slow, and at 3000
	// whenever it is very slow.
	sloRate = 2000
	// sloLimit is the latency limit from the due instant.
	sloLimit = 10 * time.Millisecond
	// steadyWhatIfs is how many what-if requests are drawn; the walk
	// sends steadyWalkQueries latency+catchment pairs behind each step.
	steadyWhatIfs     = 64
	steadyWalkQueries = 4
	// setupSpawns is how many times serve_steady spawns the daemon to
	// take setup_s as a median; the first steadyWalks of them walk the
	// cursor over the timeline before they are stopped.
	setupSpawns = 15
	steadyWalks = 7
)

func steadyArgs(seed uint64) []string {
	return []string{"-seed", strconv.FormatUint(worldSeed(wlSteady, seed), 10),
		"-max-inflight", "64", "-max-queue", "64", "-query-timeout", "1s"}
}

// callers is the closed-loop caller count and the open-loop connection
// cap: one load process with at most nproc connections, so the
// generator never outnumbers the cores it shares with the daemon.
func callers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// worldInfo is what the driver reads from GET /world.
type worldInfo struct {
	World    string `json:"world"`
	ASes     int    `json:"ases"`
	Links    int    `json:"links"`
	Prefixes int    `json:"prefixes"`
	Epochs   int    `json:"epochs"`
}

func getWorld(t *httpTarget) (worldInfo, error) {
	var w worldInfo
	status, body, err := t.do(0, &request{method: http.MethodGet, path: "/world"})
	if err != nil {
		return w, err
	}
	if status != http.StatusOK {
		return w, fmt.Errorf("GET /world: status %d: %s", status, body)
	}
	return w, json.Unmarshal(body, &w)
}

func latencyReq(id, prefix int, t float64) request {
	return request{id: id, kind: kindLatency, method: http.MethodGet, prefix: prefix, t: t,
		path: "/latency?prefix=" + strconv.Itoa(prefix) + "&t=" + strconv.FormatFloat(t, 'g', -1, 64)}
}

func catchmentReq(id, prefix, epoch int) request {
	path := "/catchment?prefix=" + strconv.Itoa(prefix)
	if epoch >= 0 {
		path += "&epoch=" + strconv.Itoa(epoch)
	}
	return request{id: id, kind: kindCatchment, method: http.MethodGet, prefix: prefix, epoch: epoch, path: path}
}

func epochReq(id, epoch int) request {
	return request{id: id, kind: kindEpoch, method: http.MethodPost, path: "/epoch",
		body: `{"set":` + strconv.Itoa(epoch) + `}`}
}

// whatIfReq draws a hypothetical: one or two links down, then a latency
// or catchment query for the prefix under it.
func whatIfReq(rng *rand.Rand, id, links, prefix int, t float64) request {
	down := strconv.Itoa(rng.Intn(links))
	if rng.Intn(2) == 0 {
		down += "," + strconv.Itoa(rng.Intn(links))
	}
	kind := "latency"
	if rng.Intn(4) == 0 {
		kind = "catchment"
	}
	return request{id: id, kind: kindWhatIf, method: http.MethodPost, path: "/whatif", prefix: prefix, t: t,
		body: `{"deltas":[{"Down":[` + down + `]}],"kind":"` + kind + `","prefix":` + strconv.Itoa(prefix) +
			`,"t_min":` + strconv.FormatFloat(t, 'g', -1, 64) + `}`}
}

// keepOK sends each request once and keeps, in list order, the ones
// answered 200 (a prefix with no resolvable egress, or a cut that
// strands it, answers 400 by design and is not part of the workload).
func keepOK(t target, callers int, reqs []request, verify verifier) []request {
	samples, _ := runClosed(t, callers, reqs, 0, verify)
	ok := make([]bool, len(reqs))
	for _, s := range samples {
		ok[s.idx] = s.ok
	}
	var out []request
	for i := range reqs {
		if ok[i] {
			out = append(out, reqs[i])
		}
	}
	return out
}

// passStats summarises the samples of one phase.
type passStats struct {
	ok      int        // answered 200 with the expected bytes
	within  int        // of those, within the latency limit
	p50     float64    // ms, over every sample
	tail, q float64    // ms at percentile q, the highest the sample count supports
	kindP50 [4]float64 // ms, per request kind
}

func summarise(samples []sample, limit time.Duration) passStats {
	var ps passStats
	var all []time.Duration
	var byKind [4][]time.Duration
	for _, s := range samples {
		if s.ok {
			ps.ok++
			if s.lat <= limit {
				ps.within++
			}
		}
		all = append(all, s.lat)
		byKind[s.kind] = append(byKind[s.kind], s.lat)
	}
	ps.p50, ps.tail, ps.q = latencyStats(all)
	for k := range byKind {
		ps.kindP50[k], _, _ = latencyStats(byKind[k])
	}
	return ps
}

// steadyPools warms every prefix once on both query kinds (dropping
// the ones that answer 400 by design) and draws the steady mix — 70 %
// latency at t=0, 30 % catchment at the cursor — and a set of what-if
// requests from the seed. Request ids: latency p → p, catchment p →
// P+p, what-if i → 2P+i.
func steadyPools(tgt target, nc int, seed uint64, w worldInfo, verify verifier) (pool, whatifs, lat, cat []request, err error) {
	var warm []request
	for p := 0; p < w.Prefixes; p++ {
		warm = append(warm, latencyReq(p, p, 0), catchmentReq(w.Prefixes+p, p, -1))
	}
	for _, r := range keepOK(tgt, nc, warm, verify) {
		if r.kind == kindLatency {
			lat = append(lat, r)
		} else {
			cat = append(cat, r)
		}
	}
	if len(lat) == 0 || len(cat) == 0 {
		return nil, nil, nil, nil, fmt.Errorf("serve_steady: no answerable prefixes on world %s", w.World)
	}
	rng := subRand(seed, 1)
	pool = make([]request, 4096)
	for i := range pool {
		if rng.Float64() < 0.7 {
			pool[i] = lat[rng.Intn(len(lat))]
		} else {
			pool[i] = cat[rng.Intn(len(cat))]
		}
	}
	var cand []request
	for i := 0; i < steadyWhatIfs; i++ {
		cand = append(cand, whatIfReq(rng, 2*w.Prefixes+i, w.Links, lat[rng.Intn(len(lat))].id, 0))
	}
	if whatifs = keepOK(tgt, nc, cand, verify); len(whatifs) == 0 {
		return nil, nil, nil, nil, fmt.Errorf("serve_steady: no answerable what-if on world %s", w.World)
	}
	return pool, whatifs, lat, cat, nil
}

// steadyWalk is the write side of the steady world: the cursor steps
// over the whole timeline once, each step followed by cursor-relative
// queries that repair their chains across it. A step can strand a
// prefix (400 by design), so the prefixes are drawn from all of them
// and only the steps themselves are counted. Ids continue after the
// what-ifs.
func steadyWalk(rng *rand.Rand, w worldInfo) []request {
	id := 2*w.Prefixes + steadyWhatIfs
	var walk []request
	for e := 1; e < w.Epochs; e++ {
		walk = append(walk, epochReq(id, e))
		id++
		for k := 0; k < steadyWalkQueries; k++ {
			walk = append(walk, request{id: id, kind: kindLatency, method: http.MethodGet,
				path: "/latency?prefix=" + strconv.Itoa(rng.Intn(w.Prefixes))})
			walk = append(walk, catchmentReq(id+1, rng.Intn(w.Prefixes), -1))
			id += 2
		}
	}
	return walk
}

func runSteady(e env, seed uint64, b budget) (*report, error) {
	rep := newReport(wlSteady)
	nc := callers()
	var check *bodyCheck
	var w worldInfo
	var stepsPerS, walkSteal []float64
	// One caller per walk: the cursor-relative queries must follow
	// their step. Every walk sends the same requests to a fresh daemon,
	// so the body check also holds the daemons to one another.
	walk := func(i int, d *daemon) error {
		if i >= steadyWalks {
			return nil
		}
		tgt := newHTTPTarget(d.base, 1)
		defer tgt.close()
		if check == nil {
			var err error
			if w, err = getWorld(tgt); err != nil {
				return err
			}
			check = newBodyCheck(2*w.Prefixes + steadyWhatIfs + w.Epochs*(1+2*steadyWalkQueries))
		}
		box := watchSteal()
		samples, wall := runClosed(tgt, 1, steadyWalk(subRand(seed, 3), w), 0, check.verify)
		walkSteal = append(walkSteal, box.share())
		steps := 0
		for _, s := range samples {
			if s.kind == kindEpoch && s.ok {
				steps++
			}
		}
		rep.count(w.Epochs-1, w.Epochs-1-steps)
		stepsPerS = append(stepsPerS, float64(steps)/wall.Seconds())
		return nil
	}
	ready, d, err := spawnForSetup(e.bins["beatbgpd"], steadyArgs(seed), setupSpawns, walk)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	tgt := newHTTPTarget(d.base, nc)
	defer tgt.close()
	pool, whatifs, lat, cat, err := steadyPools(tgt, nc, seed, w, check.verify)
	if err != nil {
		return nil, err
	}
	served := 2*w.Prefixes + steadyWhatIfs
	rep.notef("world %s: %d ASes, %d prefixes (%d latency / %d catchment answerable), %d links, %d epochs; %d callers over loopback",
		w.World, w.ASes, w.Prefixes, len(lat), len(cat), w.Links, w.Epochs, nc)

	// Each pass: half its time closed loop, four tenths open loop, a
	// tenth what-ifs.
	passes := steadyPasses
	if b.repeats > 0 {
		passes = b.repeats
	}
	share := func(x float64) time.Duration {
		return time.Duration(b.seconds * x / float64(passes) * float64(time.Second))
	}
	closedDur, openDur, whatIfDur := share(0.5), share(0.4), share(0.1)
	rep.notef("%d cursor walks of %d steps, each on a fresh daemon; then %d passes of closed loop %.2fs + open loop %.2fs at %d req/s (limit %v from due) + what-if closed loop %.2fs",
		len(stepsPerS), w.Epochs-1, passes, closedDur.Seconds(), openDur.Seconds(), sloRate, sloLimit, whatIfDur.Seconds())

	var opsPerS, p50s, tails, sloPct, wi50s, steal []float64
	var tailQ float64
	closedN, whatIfN := 0, 0
	for p := 0; p < passes; p++ {
		box := watchSteal()
		samples, wall := runClosed(tgt, nc, pool, closedDur, check.verify)
		ps := summarise(samples, sloLimit)
		rep.count(len(samples), len(samples)-ps.ok)
		closedN += len(samples)
		opsPerS = append(opsPerS, float64(ps.ok)/wall.Seconds())
		p50s = append(p50s, ps.p50)
		tails = append(tails, ps.tail)
		tailQ = ps.q

		due := poissonSchedule(subRand(seed, int64(100+p)), sloRate, openDur)
		open := runOpen(tgt, nc, pool, due, check.verify)
		ops := summarise(open, sloLimit)
		rep.count(len(open), len(open)-ops.ok)
		sloPct = append(sloPct, 100*float64(ops.within)/float64(len(open)))

		wi, _ := runClosed(tgt, nc, whatifs, whatIfDur, check.verify)
		ws := summarise(wi, sloLimit)
		rep.count(len(wi), len(wi)-ws.ok)
		wi50s = append(wi50s, ws.p50)
		whatIfN += len(wi)
		served += len(samples) + len(open) + len(wi)
		steal = append(steal, box.share())
	}

	u, err := d.stop()
	stopped = true
	if err != nil {
		return nil, err
	}

	keep := quietPasses(rep, "passes", steal)
	rep.overRepeats("setup_s", ready, "")
	rep.overRepeats("ops_per_s", pick(opsPerS, keep), "")
	rep.overRepeats("repairs_per_s", pick(stepsPerS, quietPasses(rep, "walks", walkSteal)), "cursor steps per second of a walk, each with first-touch queries behind it")
	rep.overRepeats("p50_ms", pick(p50s, keep), "")
	rep.overRepeats("p99_ms", pick(tails, keep), fmt.Sprintf("%s of each pass, %d samples in all", tailNote(tailQ), closedN))
	rep.overRepeats("whatif_p50_ms", pick(wi50s, keep), fmt.Sprintf("median of each pass, %d samples in all", whatIfN))
	rep.overRepeats("slo_ok_pct", pick(sloPct, keep), "")
	rep.set("cpu_ms_per_op", float64(u.cpu)/float64(time.Millisecond)/float64(served), served, "daemon CPU over every request it served")
	rep.set("rss_peak_mb", u.rssMB, 1, "")
	rep.set("ok_pct", rep.okPct(), rep.attempted, "")
	rep.notef("response digest %s", check.digest())
	return rep, nil
}
