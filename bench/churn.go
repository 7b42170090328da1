package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// serve_churn: the same serving layer used the other way. A large world
// (near the largest the daemon can build) and a request list that walks
// the epoch cursor across the whole fault timeline, so almost every
// query is a first touch: it walks a matbgp repair chain to a new epoch
// or builds a what-if scratch chain. matbgp repair, the cdn epoch
// singleflight, RIB materialisation and cache growth dominate; HTTP is
// a minor share. Every (origin, epoch) RIB is memoised for the life of
// the daemon, so a second pass over the list would be a different
// workload: every pass gets a fresh daemon.

const (
	// churnEyeballs sizes the world: 1115 ASes, 3110 prefixes, 269
	// epochs. -eyeballs 200 and above die with "10.0.0.0/8 exhausted".
	churnEyeballs = 150
	// churnPerEpoch is how many queries follow each step of the cursor.
	// 269 epochs x 20 is ≈5.5 k requests, ≈2.5 s and ≈1 GB of daemon
	// RSS a pass, so a run takes its medians over seven or eight fresh
	// daemons; at 40 (≈1.8 GB; more would pass 2 GB) it was over four,
	// and one pass hit by a neighbour's burst moved them.
	churnPerEpoch = 20
	// churnLimit is the latency limit slo_ok_pct is read against here:
	// from send, closed loop.
	churnLimit = 25 * time.Millisecond
	// churnSpawns is how many times the set-up spawns the daemon; with
	// the one spawn of every pass, setup_s is their median.
	churnSpawns = 7
)

func churnArgs(seed uint64) []string {
	return []string{"-seed", strconv.FormatUint(worldSeed(wlChurn, seed), 10), "-eyeballs", strconv.Itoa(churnEyeballs)}
}

// epochStarts walks the cursor over the whole timeline and back to 0,
// returning the start minute of every epoch. The cursor endpoint does
// no route work, so this leaves the daemon as cold as it found it.
func epochStarts(t *httpTarget, epochs int) ([]float64, error) {
	starts := make([]float64, epochs)
	for i := 0; i <= epochs; i++ {
		e := i % epochs // the last step parks the cursor back at 0
		r := epochReq(0, e)
		status, body, err := t.do(0, &r)
		if err != nil {
			return nil, err
		}
		var resp struct {
			StartMin float64 `json:"start_min"`
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("POST /epoch set %d: status %d: %s", e, status, body)
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("POST /epoch set %d: %w", e, err)
		}
		starts[e] = resp.StartMin
	}
	return starts, nil
}

// churnList draws the request list: the cursor steps forward one epoch
// at a time (the write beside the reads), and behind each step come
// churnPerEpoch queries — 65 % latency at the epoch's start, 20 %
// catchment at the epoch, 10 % what-if, 5 % latency at a random past
// epoch (the chain walks back through Invert). Every timed query pins
// its epoch, so answers do not depend on where the cursor is when a
// caller gets to them.
func churnList(rng *rand.Rand, w worldInfo, starts []float64) []request {
	var list []request
	add := func(r request) {
		r.id = len(list)
		list = append(list, r)
	}
	for e := 0; e < w.Epochs; e++ {
		if e > 0 {
			add(epochReq(0, e))
		}
		for k := 0; k < churnPerEpoch; k++ {
			p := rng.Intn(w.Prefixes)
			switch x := rng.Float64(); {
			case x < 0.65:
				add(latencyReq(0, p, starts[e]))
			case x < 0.85:
				add(catchmentReq(0, p, e))
			case x < 0.95:
				add(whatIfReq(rng, 0, w.Links, p, starts[e]))
			default:
				past := e
				if e > 0 {
					past = rng.Intn(e)
				}
				add(latencyReq(0, p, starts[past]))
			}
		}
	}
	return list
}

// churnSetup spawns the daemon churnSpawns times for setup_s and, on
// the last of them, reads the world and its epoch starts,
// draws the list from the seed, and runs it once untimed to drop the
// requests that answer 400 by design (a prefix with no resolvable
// egress, a cut that strands it). The bodies of the kept requests are
// now on record in check, so every timed pass is verified against them.
func churnSetup(e env, seed uint64, nc int, check *bodyCheck) (list []request, w worldInfo, ready []float64, err error) {
	ready, d, err := spawnForSetup(e.bins["beatbgpd"], churnArgs(seed), churnSpawns, nil)
	if err != nil {
		return nil, w, nil, err
	}
	defer d.stop()
	tgt := newHTTPTarget(d.base, nc)
	defer tgt.close()
	if w, err = getWorld(tgt); err != nil {
		return nil, w, nil, err
	}
	starts, err := epochStarts(tgt, w.Epochs)
	if err != nil {
		return nil, w, nil, err
	}
	cand := churnList(subRand(seed, 2), w, starts)
	*check = *newBodyCheck(len(cand))
	list = keepOK(tgt, nc, cand, check.verify)
	if len(list) == 0 {
		return nil, w, nil, fmt.Errorf("serve_churn: no answerable request on world %s", w.World)
	}
	return list, w, ready, nil
}

func runChurn(e env, seed uint64, b budget) (*report, error) {
	rep := newReport(wlChurn)
	nc := callers()
	var check bodyCheck
	list, w, ready, err := churnSetup(e, seed, nc, &check)
	if err != nil {
		return nil, err
	}
	steps := 0
	for i := range list {
		if list[i].kind == kindEpoch {
			steps++
		}
	}
	rep.notef("world %s: %d ASes-scale world (-eyeballs %d), %d prefixes, %d links, %d epochs; %d callers over loopback",
		w.World, w.ASes, churnEyeballs, w.Prefixes, w.Links, w.Epochs, nc)
	rep.notef("list of %d requests (%d cursor steps), one closed-loop pass per fresh daemon; limit %v from send", len(list), steps, churnLimit)

	var opsPerS, stepsPerS, p50s, tails, wi50s, slo, cpuPerOp, rss, steal []float64
	var tailQ float64
	n := 0
	start := time.Now()
	var last time.Duration
	for pass := 0; b.more(pass, time.Since(start), last); pass++ {
		t0 := time.Now()
		d, err := startDaemon(e.bins["beatbgpd"], churnArgs(seed)...)
		if err != nil {
			return nil, err
		}
		tgt := newHTTPTarget(d.base, nc)
		box := watchSteal()
		samples, wall := runClosed(tgt, nc, list, 0, check.verify)
		steal = append(steal, box.share())
		tgt.close()
		u, err := d.stop()
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)

		ps := summarise(samples, churnLimit)
		rep.count(len(samples), len(samples)-ps.ok)
		n += len(samples)
		ready = append(ready, d.ready.Seconds())
		opsPerS = append(opsPerS, float64(ps.ok)/wall.Seconds())
		stepsPerS = append(stepsPerS, float64(steps)/wall.Seconds())
		p50s = append(p50s, ps.p50)
		tails = append(tails, ps.tail)
		tailQ = ps.q
		wi50s = append(wi50s, ps.kindP50[kindWhatIf])
		slo = append(slo, 100*float64(ps.within)/float64(len(samples)))
		cpuPerOp = append(cpuPerOp, float64(u.cpu)/float64(time.Millisecond)/float64(len(samples)))
		rss = append(rss, u.rssMB)
	}

	keep := quietPasses(rep, "passes", steal)
	rep.overRepeats("setup_s", ready, "")
	rep.overRepeats("ops_per_s", pick(opsPerS, keep), "")
	rep.overRepeats("repairs_per_s", pick(stepsPerS, keep), "cursor steps per second of the pass, each with first-touch queries behind it")
	rep.overRepeats("p50_ms", pick(p50s, keep), "")
	rep.overRepeats("p99_ms", pick(tails, keep), tailNote(tailQ)+" of each pass")
	rep.overRepeats("whatif_p50_ms", pick(wi50s, keep), "")
	rep.overRepeats("slo_ok_pct", pick(slo, keep), "")
	rep.overRepeats("cpu_ms_per_op", pick(cpuPerOp, keep), "")
	rep.overRepeats("rss_peak_mb", pick(rss, keep), "")
	rep.set("ok_pct", rep.okPct(), rep.attempted, "")
	rep.notef("%d requests over %d passes; response digest %s", n, len(opsPerS), check.digest())
	return rep, nil
}
