package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"time"

	"beatbgp/internal/bgp"
	"beatbgp/internal/core"
	"beatbgp/internal/provider"
	"beatbgp/internal/serve"
)

// The traced passes of the two serving workloads. The driver builds the
// workload's world in its own process, freezes it, and puts a
// serve.Server over it; then, for each sampled request, it makes the
// real call (over HTTP to that server's listener, and through the
// library form) and beside it replays the calls the answer makes into
// each layer's public functions, every call under a span. What the
// answer costs beyond the sum of its replayed stages — admission,
// deadline context, chain lookup, response assembly — is reported as
// unattributed, the number in-program tracing will later break up.

const (
	// traceSample is how many warm requests the steady pass traces; each
	// is also checked byte for byte, HTTP body against serve.Encode of
	// the library answer.
	traceSample = 1024
	// allocQueries is the batch the per-query allocation counts are
	// read over.
	allocQueries = 1000
	// Cold probes of the churn pass: coldPrefixes origin chains walked
	// over the first coldEpochs epochs, each step a first touch.
	coldPrefixes = 48
	coldEpochs   = 32
	// coldWhatIfs and coldAnycastEpochs size the what-if and anycast
	// first-touch probes.
	coldWhatIfs       = 128
	coldAnycastEpochs = 64
)

// inProcess builds the workload's world in this process, reports the
// build's stages, and starts a server over the frozen world.
func inProcess(rep *report, seed uint64, eyeballs int, opts ...serve.Option) (*core.World, *serve.Server, *httpTarget, error) {
	_, s, err := timeScenarioBuilds(scenarioConfig(seed, eyeballs), 1)
	if err != nil {
		return nil, nil, nil, err
	}
	w, err := buildLayers(rep, s)
	if err != nil {
		return nil, nil, nil, err
	}
	srv := serve.New(w, opts...)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	return w, srv, newHTTPTarget("http://"+addr.String(), callers()), nil
}

func shutdown(srv *serve.Server, tgt *httpTarget) {
	tgt.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// egressRIB is the RIB the serving layer answers the origin's latency
// queries from at epoch 0, built the way its chain builds it.
func egressRIB(w *core.World, origin int) (*bgp.RIB, error) {
	rep, err := bgp.StartRepair(w.Routes, []bgp.Announcement{{Origin: origin}})
	if err != nil {
		return nil, err
	}
	if err := bgp.ApplyContext(context.Background(), rep, w.Epochs.Epoch(0).Delta); err != nil {
		return nil, err
	}
	return rep.RIB()
}

// warmProbe makes one warm request every way — over HTTP, through the
// library, and stage by stage — under spans of request i, and checks
// the three agree. ribs holds the epoch-0 egress RIB per origin.
func warmProbe(tr *tracer, i int, r *request, w *core.World, srv *serve.Server, tgt *httpTarget, ribs map[int]*bgp.RIB) error {
	root := tr.begin("request", -1, i)
	defer tr.end(root)

	var status int
	var body []byte
	var err error
	tr.call("serve.http_rtt", root, i, func() { status, body, err = tgt.do(0, r) })
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("%s: status %d, %v", r.path, status, err)
	}
	p := w.Topo.Prefixes[r.prefix]
	var answer any
	var replayed bool
	switch r.kind {
	case kindLatency:
		var resp serve.LatencyResp
		tr.call("serve.answer_latency", root, i, func() { resp, err = srv.AnswerLatency(r.prefix, r.t) })
		answer = resp
		st := tr.begin("stages", root, i)
		var pop int
		var opts []provider.EgressOption
		tr.call("provider.egress_options", st, i, func() {
			pop = w.Prov.ServingPoP(p.City)
			opts = w.Prov.EgressOptions(ribs[p.Origin], pop)
		})
		for _, opt := range opts {
			sp := tr.begin("netpath.resolve_pinned", st, i)
			phys, rerr := w.Res.ResolvePinned(opt.Route, pop, p.City, pop)
			tr.end(sp)
			if rerr != nil {
				continue
			}
			sp = tr.begin("netsim.route_rtt", st, i)
			rtt := w.Sim.RouteRTTMs(phys, p, r.t)
			tr.end(sp)
			if !replayed { // the first resolvable option is the preferred one
				replayed = rtt == resp.Preferred.RTTMs && opt.Link == resp.Preferred.Link
			}
		}
		tr.end(st)
	case kindCatchment:
		var resp serve.CatchmentResp
		tr.call("serve.answer_catchment", root, i, func() { resp, err = srv.AnswerCatchment(r.prefix, r.epoch) })
		answer = resp
		st := tr.begin("stages", root, i)
		var rib *bgp.RIB
		var rerr error
		tr.call("cdn.anycast_rib_at_hit", st, i, func() { rib, rerr = w.CDN.AnycastRIBAt(resp.Epoch) })
		if rerr == nil {
			var site int
			tr.call("cdn.phys_via_rib", st, i, func() { _, site, rerr = w.CDN.PhysViaRIB(rib, p) })
			replayed = rerr == nil && site == resp.Site
		}
		tr.end(st)
	default:
		return fmt.Errorf("warm probe of request kind %d", r.kind)
	}
	if err != nil {
		return fmt.Errorf("%s: library form: %w", r.path, err)
	}
	var enc []byte
	tr.call("serve.encode", root, i, func() { enc, err = serve.Encode(answer) })
	if err != nil {
		return err
	}
	if !bytes.Equal(enc, body) {
		return fmt.Errorf("%s: HTTP body differs from serve.Encode of the library answer", r.path)
	}
	if !replayed {
		return fmt.Errorf("%s: the stage replay did not arrive at the library's answer", r.path)
	}
	return nil
}

// probeLoop runs probe over n requests, counting each into the report,
// and returns requests per second.
func probeLoop(rep *report, n int, probe func(i int) error) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		err := probe(i)
		rep.check(err == nil, "%v", err)
	}
	return float64(n) / time.Since(t0).Seconds()
}

// setSpan reports the median per-request time under a span name.
func setSpan(rep *report, st map[string]*spanStats, metric, name string) {
	if s := st[name]; s != nil {
		rep.set(metric, median(values(s.total)), len(s.total), fmt.Sprintf("median per request, %d calls", s.calls))
	}
}

func traceSteady(e env, seed uint64, b budget) (*report, error) {
	rep := newReport(wlSteady)
	w, srv, tgt, err := inProcess(rep, worldSeed(wlSteady, seed), 0,
		serve.WithAdmission(64, 64), serve.WithQueryTimeout(time.Second))
	if err != nil {
		return nil, err
	}
	defer shutdown(srv, tgt)
	wi, err := getWorld(tgt)
	if err != nil {
		return nil, err
	}
	pool, _, lat, _, err := steadyPools(tgt, callers(), seed, wi, nil)
	if err != nil {
		return nil, err
	}
	ribs := map[int]*bgp.RIB{}
	for _, r := range lat {
		o := w.Topo.Prefixes[r.prefix].Origin
		if ribs[o] == nil {
			if ribs[o], err = egressRIB(w, o); err != nil {
				return nil, err
			}
		}
	}

	// The same requests untraced, then traced: the difference is what
	// recording spans costs. A first loop, not measured, takes the
	// one-off costs (connection set-up, cold caches) off both.
	sample := pool[:traceSample]
	probeLoop(rep, len(sample), func(i int) error { return warmProbe(nil, i, &sample[i], w, srv, tgt, ribs) })
	plain := probeLoop(rep, len(sample), func(i int) error { return warmProbe(nil, i, &sample[i], w, srv, tgt, ribs) })
	tr := newTracer()
	traced := probeLoop(rep, len(sample), func(i int) error { return warmProbe(tr, i, &sample[i], w, srv, tgt, ribs) })
	rep.set("trace.overhead_pct", 100*(1-traced/plain), len(sample), fmt.Sprintf("%.0f probes/s traced, %.0f untraced", traced, plain))

	st := tr.byName()
	setSpan(rep, st, "serve.http_rtt_us", "serve.http_rtt")
	setSpan(rep, st, "serve.answer_latency_us", "serve.answer_latency")
	setSpan(rep, st, "serve.answer_catchment_us", "serve.answer_catchment")
	setSpan(rep, st, "serve.encode_us", "serve.encode")
	setSpan(rep, st, "provider.egress_options_us", "provider.egress_options")
	setSpan(rep, st, "netpath.resolve_pinned_us", "netpath.resolve_pinned")
	setSpan(rep, st, "netsim.route_rtt_us", "netsim.route_rtt")
	setSpan(rep, st, "cdn.phys_via_rib_us", "cdn.phys_via_rib")
	setSpan(rep, st, "cdn.anycast_rib_at_hit_us", "cdn.anycast_rib_at_hit")
	// Per request: the round trip beyond answering and encoding, and
	// the answer beyond its replayed stages (the stages span's children).
	var overhead, unattributed []float64
	stages := st["stages"]
	for id, rtt := range st["serve.http_rtt"].total {
		answer, ok := st["serve.answer_latency"].total[id]
		if !ok {
			answer = st["serve.answer_catchment"].total[id]
		}
		overhead = append(overhead, rtt-answer-st["serve.encode"].total[id])
		unattributed = append(unattributed, 100*(answer-(stages.total[id]-stages.self[id]))/answer)
	}
	rep.set("serve.http_overhead_us", median(overhead), len(overhead), "median of round trip - answer - encode")
	rep.set("serve.unattributed_pct", median(unattributed), len(unattributed), "median share of the answer its replayed stages do not cover")

	m0 := memNow()
	for i := 0; i < allocQueries; i++ {
		r := &lat[i%len(lat)]
		if _, err := srv.AnswerLatency(r.prefix, r.t); err != nil {
			return nil, err
		}
	}
	md := memNow().since(m0)
	rep.set("serve.allocs_per_query", float64(md.mallocs)/allocQueries, allocQueries, "library latency queries")
	rep.set("serve.bytes_per_query", float64(md.bytes)/allocQueries, allocQueries, "")

	phase := time.Duration(b.seconds / 8 * float64(time.Second))
	if err := shedProbe(rep, w, pool, phase); err != nil {
		return nil, err
	}
	if err := loadgenProbe(rep, e, seed, phase); err != nil {
		return nil, err
	}

	path, err := writeTrace(e.root, traceFile{Workload: wlSteady, Seed: seed, Counts: rep.values(), Spans: tr.spans})
	if err != nil {
		return nil, err
	}
	rep.notef("in-process world %s; %d requests probed untraced, then traced; spans in %s", w.Key, len(sample), path)
	return rep, nil
}

// shedProbe puts two callers on a server that admits one query at a
// time with no waiting room, so the gate sheds whenever they overlap.
func shedProbe(rep *report, w *core.World, pool []request, dur time.Duration) error {
	srv := serve.New(w, serve.WithAdmission(1, 0))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	tgt := newHTTPTarget("http://"+addr.String(), 2)
	defer shutdown(srv, tgt)
	samples, _ := runClosed(tgt, 2, pool, dur, nil)
	var shed, admitted []time.Duration
	other := 0
	for _, s := range samples {
		switch s.status {
		case http.StatusTooManyRequests:
			shed = append(shed, s.lat)
		case http.StatusOK:
			admitted = append(admitted, s.lat)
		default:
			other++
		}
	}
	rep.count(len(samples), other) // a request is admitted or shed; anything else failed
	rep.set("serve.shed_pct", 100*float64(len(shed))/float64(len(samples)), len(samples), "WithAdmission(1,0), 2 callers")
	p50, _, _ := latencyStats(shed)
	rep.set("serve.shed_reply_us", p50*1e3, len(shed), "median 429 round trip")
	_, tail, q := latencyStats(admitted)
	rep.set("serve.admitted_p99_ms", tail, len(admitted), tailNote(q))
	return nil
}

// openRates are the fixed rates the generator's own tails are read at:
// the slo_ok_pct phase's, half of it and twice it.
var openRates = []int{1000, sloRate, 4000}

// loadgenProbe drives a spawned daemon open loop at each fixed rate and
// reports the tail from the due instant per rate, the highest rate that
// met the limit, and how late the generator itself ran.
func loadgenProbe(rep *report, e env, seed uint64, dur time.Duration) error {
	d, err := startDaemon(e.bins["beatbgpd"], steadyArgs(seed)...)
	if err != nil {
		return err
	}
	defer d.stop()
	nc := callers()
	tgt := newHTTPTarget(d.base, nc)
	defer tgt.close()
	wi, err := getWorld(tgt)
	if err != nil {
		return err
	}
	pool, _, _, _, err := steadyPools(tgt, nc, seed, wi, nil)
	if err != nil {
		return err
	}
	maxOK := 0
	for k, rate := range openRates {
		due := poissonSchedule(subRand(seed, int64(200+k)), float64(rate), dur)
		open := runOpen(tgt, nc, pool, due, nil)
		var lat, late []time.Duration
		okN := 0
		for _, s := range open {
			lat, late = append(lat, s.lat), append(late, s.late)
			if s.ok {
				okN++
			}
		}
		rep.count(len(open), len(open)-okN)
		_, tail, q := latencyStats(lat)
		rep.set(fmt.Sprintf("loadgen.r%d_p99_ms", rate), tail, len(lat), tailNote(q)+" from the due instant")
		if okN == len(open) && tail <= float64(sloLimit)/float64(time.Millisecond) {
			maxOK = rate
		}
		if rate == sloRate {
			_, ltail, lq := latencyStats(late)
			rep.set("loadgen.late_p99_ms", ltail, len(late), fmt.Sprintf("%s sent after due, at %d req/s", tailNote(lq), rate))
			rep.set("loadgen.late_max_ms", float64(slices.Max(late))/float64(time.Millisecond), len(late), "")
		}
	}
	rep.set("loadgen.max_ok_rate", float64(maxOK), len(openRates), fmt.Sprintf("highest of %v req/s with every request answered and the tail within %v", openRates, sloLimit))
	return nil
}

// coldProbe walks one origin's chain over the first coldEpochs epochs:
// at each epoch the library answers a latency query that no one has
// asked before (a first touch: the chain repairs one step and
// materialises a RIB), and beside it a private chain replays the step
// under spans of its own.
func coldProbe(tr *tracer, req int, prefix int, w *core.World, srv *serve.Server) error {
	p := w.Topo.Prefixes[prefix]
	ctx := context.Background()
	var rep bgp.RouteRepairer
	var err error
	first := tr.begin("request", -1, req)
	tr.call("matbgp.start_repair", first, req, func() {
		rep, err = bgp.StartRepair(w.Routes, []bgp.Announcement{{Origin: p.Origin}})
	})
	tr.end(first)
	if err != nil {
		return err
	}
	for e := 0; e < coldEpochs && e < w.Epochs.Len(); e++ {
		id := req + e
		root := tr.begin("request", -1, id)
		ep := w.Epochs.Epoch(e)
		var resp serve.LatencyResp
		var aerr error
		tr.call("serve.answer_latency_cold", root, id, func() { resp, aerr = srv.AnswerLatency(prefix, ep.Start) })
		st := tr.begin("stages", root, id)
		tr.call("matbgp.apply", st, id, func() { err = bgp.ApplyContext(ctx, rep, ep.Delta) })
		if err == nil {
			tr.call("matbgp.rib", st, id, func() { _, err = rep.RIB() })
		}
		tr.end(st)
		tr.end(root)
		if err != nil {
			return err
		}
		// A prefix stranded at this epoch answers a bad query by
		// design; anything else must be the epoch asked for.
		if aerr == nil && resp.Epoch != w.Epochs.At(ep.Start) {
			return fmt.Errorf("prefix %d at t=%v answered from epoch %d", prefix, ep.Start, resp.Epoch)
		}
	}
	return nil
}

func traceChurn(e env, seed uint64, b budget) (*report, error) {
	rep := newReport(wlChurn)
	w, srv, tgt, err := inProcess(rep, worldSeed(wlChurn, seed), churnEyeballs)
	if err != nil {
		return nil, err
	}
	defer shutdown(srv, tgt)
	// One prefix per origin: a second prefix of an origin would find the
	// chain its sibling already walked.
	rng := subRand(seed, 6)
	var prefixes []int
	seen := map[int]bool{}
	for _, p := range rng.Perm(len(w.Topo.Prefixes)) {
		if o := w.Topo.Prefixes[p].Origin; !seen[o] {
			seen[o] = true
			prefixes = append(prefixes, p)
		}
	}
	if len(prefixes) <= 3*coldPrefixes {
		return nil, fmt.Errorf("serve_churn: world %s has %d origins, the cold probes need %d", w.Key, len(prefixes), 3*coldPrefixes+1)
	}

	// Untraced first, on origins of its own: the heap the server keeps
	// per first touch, and the rate the traced loop is compared to.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	plain := probeLoop(rep, coldPrefixes, func(i int) error { return coldProbe(nil, 0, prefixes[i], w, srv) })
	runtime.GC()
	runtime.ReadMemStats(&ms)
	cold := coldPrefixes * coldEpochs
	rep.set("serve.retained_kb_per_cold_query", (float64(ms.HeapAlloc)-float64(heap0))/1e3/float64(cold), cold, "heap kept after GC per first-touch latency query")

	tr := newTracer()
	traced := probeLoop(rep, coldPrefixes, func(i int) error {
		return coldProbe(tr, i*(coldEpochs+1), prefixes[coldPrefixes+i], w, srv)
	})
	rep.set("trace.overhead_pct", 100*(1-traced/plain), coldPrefixes, fmt.Sprintf("%.1f chains/s traced, %.1f untraced", traced, plain))

	// The anycast chain's first touches, epoch by epoch, and the class
	// cache's Compute for origins nothing has asked about yet.
	base := (coldPrefixes + 1) * (coldEpochs + 1)
	for ep := 1; ep <= coldAnycastEpochs && ep < w.Epochs.Len(); ep++ {
		var aerr error
		tr.call("cdn.anycast_rib_at_cold", -1, base+ep, func() { _, aerr = w.CDN.AnycastRIBAt(ep) })
		rep.check(aerr == nil, "AnycastRIBAt(%d): %v", ep, aerr)
	}
	base += coldAnycastEpochs + 1
	for i := 0; i < coldPrefixes; i++ {
		o := w.Topo.Prefixes[prefixes[2*coldPrefixes+i]].Origin
		var cerr error
		tr.call("matbgp.compute", -1, base+i, func() { _, cerr = w.Routes.Compute([]bgp.Announcement{{Origin: o}}) })
		rep.check(cerr == nil, "Compute(origin %d): %v", o, cerr)
	}
	base += coldPrefixes

	// What-ifs: each builds and repairs a scratch chain of its own.
	var whatifs []serve.WhatIfReq
	for len(whatifs) < coldWhatIfs {
		r := whatIfReq(rng, 0, len(w.Topo.Links), rng.Intn(len(w.Topo.Prefixes)), 0)
		var q serve.WhatIfReq
		if err := json.Unmarshal([]byte(r.body), &q); err != nil {
			return nil, err
		}
		if _, err := srv.AnswerWhatIf(q); err == nil { // a cut that strands the prefix is not part of the workload
			whatifs = append(whatifs, q)
		}
	}
	m0 := memNow()
	for i, q := range whatifs {
		var werr error
		tr.call("serve.answer_whatif", -1, base+i, func() { _, werr = srv.AnswerWhatIf(q) })
		rep.check(werr == nil, "what-if %d: %v", i, werr)
	}
	md := memNow().since(m0)
	rep.set("serve.whatif_allocs", float64(md.mallocs)/coldWhatIfs, coldWhatIfs, "per what-if")
	rep.set("serve.whatif_bytes", float64(md.bytes)/coldWhatIfs, coldWhatIfs, "")

	// One more chain, its Applies counted instead of timed.
	p := w.Topo.Prefixes[prefixes[3*coldPrefixes]]
	chain, err := bgp.StartRepair(w.Routes, []bgp.Announcement{{Origin: p.Origin}})
	if err != nil {
		return nil, err
	}
	steps := 0
	m0 = memNow()
	for ep := 0; ep < w.Epochs.Len(); ep++ {
		if err := bgp.ApplyContext(context.Background(), chain, w.Epochs.Epoch(ep).Delta); err != nil {
			return nil, err
		}
		steps++
	}
	md = memNow().since(m0)
	rep.set("matbgp.apply_allocs", float64(md.mallocs)/float64(steps), steps, "per Apply, one chain over the whole timeline")
	rep.set("matbgp.apply_bytes", float64(md.bytes)/float64(steps), steps, "")

	st := tr.byName()
	setSpan(rep, st, "serve.answer_latency_cold_us", "serve.answer_latency_cold")
	setSpan(rep, st, "serve.answer_whatif_us", "serve.answer_whatif")
	setSpan(rep, st, "cdn.anycast_rib_at_cold_us", "cdn.anycast_rib_at_cold")
	setSpan(rep, st, "matbgp.start_repair_us", "matbgp.start_repair")
	setSpan(rep, st, "matbgp.apply_us", "matbgp.apply")
	setSpan(rep, st, "matbgp.rib_us", "matbgp.rib")
	setSpan(rep, st, "matbgp.compute_us", "matbgp.compute")

	path, err := writeTrace(e.root, traceFile{Workload: wlChurn, Seed: seed, Counts: rep.values(), Spans: tr.spans})
	if err != nil {
		return nil, err
	}
	rep.notef("in-process world %s (-eyeballs %d); %d origin chains x %d epochs untraced, then as many traced; spans in %s",
		w.Key, churnEyeballs, coldPrefixes, coldEpochs, path)
	return rep, nil
}
