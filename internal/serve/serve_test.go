package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"beatbgp/internal/core"
)

// smallConfig is a laptop-scale world config, mirroring the core test
// suite's small config.
func smallConfig(seed uint64) core.Config {
	cfg := core.Config{Seed: seed}
	cfg.Topology.EyeballsPerRegion = 8
	cfg.Workload.Days = 2
	return cfg
}

// freeze builds the config's scenario and freezes it.
func freeze(t testing.TB, cfg core.Config) (*core.Scenario, *core.World) {
	t.Helper()
	s, err := core.NewScenario(cfg)
	if err != nil {
		t.Fatalf("seed %d: build: %v", cfg.Seed, err)
	}
	w, err := s.Freeze()
	if err != nil {
		t.Fatalf("seed %d: freeze: %v", cfg.Seed, err)
	}
	return s, w
}

// smallWorld builds and freezes a laptop-scale world.
func smallWorld(t testing.TB, seed uint64) *core.World {
	t.Helper()
	_, w := freeze(t, smallConfig(seed))
	return w
}

// query is one HTTP request with a deterministic answer: the method,
// target (path + query or JSON body), and the library bytes it must
// match. Epoch moves use absolute "set" so answers are independent of
// the interleaving.
type query struct {
	method string
	path   string
	body   string
}

// mixedQueries builds the deterministic query mix for a world: every
// query pins its epoch/instant explicitly, so any interleaving of the
// whole set answers identically.
func mixedQueries(w *core.World) []query {
	var qs []query
	nEpochs := w.Epochs.Len()
	prefixes := len(w.Topo.Prefixes)
	for i := 0; i < 8; i++ {
		p := (i * 37) % prefixes
		e := i % nEpochs
		tm := w.Epochs.Epoch(e).Start
		qs = append(qs,
			query{http.MethodGet, fmt.Sprintf("/catchment?prefix=%d&epoch=%d", p, e), ""},
			query{http.MethodGet, fmt.Sprintf("/latency?prefix=%d&t=%g", p, tm), ""},
			query{http.MethodPost, "/whatif", fmt.Sprintf(
				`{"deltas":[{"Down":[%d]}],"kind":"latency","prefix":%d,"t_min":%g}`, i%len(w.Topo.Links), p, tm)},
			query{http.MethodPost, "/epoch", fmt.Sprintf(`{"set":%d}`, e)},
			query{http.MethodGet, "/world", ""},
		)
	}
	return qs
}

// libraryAnswer computes the Encode bytes of the library-path answer
// for a query — the truth the HTTP bytes must equal.
func libraryAnswer(t testing.TB, s *Server, q query) []byte {
	t.Helper()
	var (
		v   any
		err error
	)
	switch {
	case strings.HasPrefix(q.path, "/catchment"):
		var p, e int
		if _, serr := fmt.Sscanf(q.path, "/catchment?prefix=%d&epoch=%d", &p, &e); serr != nil {
			t.Fatalf("parse %q: %v", q.path, serr)
		}
		v, err = s.AnswerCatchment(p, e)
	case strings.HasPrefix(q.path, "/latency"):
		var p int
		var tm float64
		if _, serr := fmt.Sscanf(q.path, "/latency?prefix=%d&t=%g", &p, &tm); serr != nil {
			t.Fatalf("parse %q: %v", q.path, serr)
		}
		v, err = s.AnswerLatency(p, tm)
	case q.path == "/whatif":
		var req WhatIfReq
		if uerr := json.Unmarshal([]byte(q.body), &req); uerr != nil {
			t.Fatalf("parse %q: %v", q.body, uerr)
		}
		v, err = s.AnswerWhatIf(req)
	case q.path == "/epoch":
		var req struct {
			Set *int `json:"set"`
		}
		if uerr := json.Unmarshal([]byte(q.body), &req); uerr != nil {
			t.Fatalf("parse %q: %v", q.body, uerr)
		}
		v, err = s.AnswerEpoch(0, req.Set)
	case q.path == "/world":
		v = s.AnswerWorld()
	default:
		t.Fatalf("unknown query %q", q.path)
	}
	if err != nil {
		t.Fatalf("library answer %s: %v", q.path, err)
	}
	b, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// httpAnswer performs the query against a live listener and returns
// the raw response bytes (status must be 200).
func httpAnswer(t testing.TB, base string, q query) []byte {
	t.Helper()
	var (
		resp *http.Response
		err  error
	)
	switch q.method {
	case http.MethodGet:
		resp, err = http.Get(base + q.path)
	default:
		resp, err = http.Post(base+q.path, "application/json", strings.NewReader(q.body))
	}
	if err != nil {
		t.Fatalf("%s %s: %v", q.method, q.path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read: %v", q.method, q.path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", q.method, q.path, resp.StatusCode, b)
	}
	return b
}

// TestServeConcurrentQueriesDeterministic is the tentpole's acceptance
// gate: N goroutines fire the mixed catchment/latency/whatif/epoch
// query set at a live daemon, and every response must be byte-identical
// to the single-threaded library answer for the same query — for two
// seeds and under -race (make race-serve).
func TestServeConcurrentQueriesDeterministic(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		w := smallWorld(t, seed)
		srv := New(w)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := "http://" + addr.String()
		qs := mixedQueries(w)

		// Library truth from a second server over the same frozen world:
		// single-threaded, before any concurrent traffic.
		ref := New(w)
		want := make([][]byte, len(qs))
		for i, q := range qs {
			want[i] = libraryAnswer(t, ref, q)
		}

		const workers = 8
		const rounds = 3
		errs := make(chan error, workers*rounds*len(qs))
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for i := range qs {
						// Stagger start positions so goroutines collide on
						// different queries.
						j := (i + g*5) % len(qs)
						got := httpAnswer(t, base, qs[j])
						if !bytes.Equal(got, want[j]) {
							errs <- fmt.Errorf("seed %d %s %s:\n got: %s\nwant: %s",
								seed, qs[j].method, qs[j].path, got, want[j])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeRestartSameWorldKey is the kill-and-restart gate, the
// harness checkpoint pattern at the serving layer: a daemon stopped
// and restarted over a freshly rebuilt world with the same config must
// report the same world key and serve byte-identical answers — the
// world key is the invariant that makes restart transparent.
func TestServeRestartSameWorldKey(t *testing.T) {
	const seed = 42
	w1 := smallWorld(t, seed)
	srv1 := New(w1)
	addr1, err := srv1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	qs := mixedQueries(w1)
	first := make([][]byte, len(qs))
	for i, q := range qs {
		first[i] = httpAnswer(t, "http://"+addr1.String(), q)
	}
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh process would rebuild the world from the same
	// config; the content key proves it is the same world.
	w2 := smallWorld(t, seed)
	if w1.Key != w2.Key {
		t.Fatalf("rebuilt world key %s != original %s", w2.Key, w1.Key)
	}
	srv2 := New(w2)
	addr2, err := srv2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(context.Background())
	for i, q := range qs {
		got := httpAnswer(t, "http://"+addr2.String(), q)
		if !bytes.Equal(got, first[i]) {
			t.Fatalf("%s %s diverged after restart:\n got: %s\nwant: %s", q.method, q.path, got, first[i])
		}
	}
}

// TestServeDrain locks the drain contract: Shutdown completes in-flight
// requests, refuses new connections afterward, and a drained Server can
// Start again.
func TestServeDrain(t *testing.T) {
	w := smallWorld(t, 42)
	srv := New(w)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	// A request in flight when Shutdown lands must complete with a full
	// answer: fire a burst and shut down while it runs.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/world")
			if err != nil {
				// Connection refused is acceptable only if shutdown won the
				// race before the dial; a started request must not be cut.
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- fmt.Errorf("in-flight request cut mid-response: %v", err)
				return
			}
			if resp.StatusCode != http.StatusOK || len(b) == 0 {
				errs <- fmt.Errorf("in-flight request got status %d body %q", resp.StatusCode, b)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let some requests take off
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Drained listener refuses new work.
	if _, err := http.Get(base + "/world"); err == nil {
		t.Fatal("request after drain succeeded")
	}
	// Shutdown again is a no-op; Start works again.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	addr2, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if b := httpAnswer(t, "http://"+addr2.String(), query{http.MethodGet, "/world", ""}); len(b) == 0 {
		t.Fatal("restarted listener returned empty answer")
	}
}

// TestServeQueryValidation: malformed queries come back as 400s with a
// JSON error, never a 500 or a hang.
func TestServeQueryValidation(t *testing.T) {
	w := smallWorld(t, 42)
	srv := New(w)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + addr.String()
	bad := []query{
		{http.MethodGet, "/catchment", ""},                                                     // missing prefix
		{http.MethodGet, "/catchment?prefix=999999", ""},                                       // prefix out of range
		{http.MethodGet, fmt.Sprintf("/catchment?prefix=0&epoch=%d", w.Epochs.Len()), ""},      // epoch out of range
		{http.MethodGet, "/latency?prefix=x", ""},                                              // non-integer
		{http.MethodPost, "/whatif", `{"kind":"nope","prefix":0}`},                             // unknown kind
		{http.MethodPost, "/whatif", `{"deltas":[{"Down":[-1]}],"kind":"latency","prefix":0}`}, // bad link
		{http.MethodPost, "/epoch", `{"set":-1}`},                                              // cursor out of range
		{http.MethodGet, "/latency?prefix=0&t=NaN", ""},                                        // non-finite instant
		{http.MethodGet, "/latency?prefix=0&t=Inf", ""},
		{http.MethodGet, "/latency?prefix=0&t=-Inf", ""},
	}
	for _, q := range bad {
		var resp *http.Response
		var err error
		if q.method == http.MethodGet {
			resp, err = http.Get(base + q.path)
		} else {
			resp, err = http.Post(base+q.path, "application/json", strings.NewReader(q.body))
		}
		if err != nil {
			t.Fatalf("%s %s: %v", q.method, q.path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d (%s), want 400", q.method, q.path, resp.StatusCode, b)
		}
		if !bytes.Contains(b, []byte(`"error"`)) {
			t.Fatalf("%s %s: body %q is not a JSON error", q.method, q.path, b)
		}
	}
	// A non-finite instant is a bad query in the library too, naming the
	// parameter, for latency and what-if alike.
	for _, tm := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := srv.AnswerLatency(0, tm); !errors.Is(err, ErrBadQuery) || !strings.Contains(err.Error(), "t=") {
			t.Errorf("AnswerLatency(t=%v): err %v, want ErrBadQuery naming t", tm, err)
		}
		_, err := srv.AnswerWhatIf(WhatIfReq{Kind: "latency", Prefix: 0, TMin: tm})
		if !errors.Is(err, ErrBadQuery) || !strings.Contains(err.Error(), "t_min=") {
			t.Errorf("AnswerWhatIf(t_min=%v): err %v, want ErrBadQuery naming t_min", tm, err)
		}
	}
}

// TestServeLatencyFollowsFig1Routes: the latency answers compare the
// route set Fig 1 measures. For every prefix, /latency at t=0 and a
// no-delta what-if latency count exactly the routes the campaign
// generator's Observe keeps for that ⟨PoP, prefix⟩, prefer its first,
// and pick the best alternate among the rest — at the default TopK and
// at a configured one, so the cap is the world's, not a literal.
func TestServeLatencyFollowsFig1Routes(t *testing.T) {
	for _, topK := range []int{0, 2} {
		cfg := smallConfig(42)
		cfg.Workload.TopK = topK
		s, w := freeze(t, cfg)
		if down := w.Epochs.Epoch(w.Epochs.At(0)).Down; len(down) != 0 {
			t.Fatalf("TopK=%d: links %v down at t=0; the check needs the all-up baseline", topK, down)
		}
		srv := New(w)
		for _, p := range w.Topo.Prefixes {
			rib, err := s.Oracle.ToPrefix(p)
			if err != nil {
				t.Fatal(err)
			}
			pop := w.Prov.ServingPoP(p.City)
			tr, err := s.Gen.Observe(pop, p, w.Prov.EgressOptions(rib, pop))
			lat, lerr := srv.AnswerLatency(p.ID, 0)
			wi, werr := srv.AnswerWhatIf(WhatIfReq{Kind: "latency", Prefix: p.ID})
			if err != nil {
				if lerr == nil || werr == nil {
					t.Fatalf("TopK=%d prefix %d: Observe fails (%v) but latency answered", topK, p.ID, err)
				}
				continue
			}
			if lerr != nil || werr != nil {
				t.Fatalf("TopK=%d prefix %d: latency %v, what-if %v", topK, p.ID, lerr, werr)
			}
			want := LatencyResp{Options: len(tr.Routes), Preferred: EgressObs{Link: tr.Routes[0].Option.Link}}
			for _, ro := range tr.Routes[1:] {
				rtt := w.Sim.RouteRTTMs(ro.Phys, p, 0)
				if want.BestAlt == nil || rtt < want.BestAlt.RTTMs {
					want.BestAlt = &EgressObs{Link: ro.Option.Link, RTTMs: rtt}
				}
			}
			for name, got := range map[string]LatencyResp{"latency": lat, "what-if": *wi.Latency} {
				if got.Options != want.Options || got.Preferred.Link != want.Preferred.Link ||
					(got.BestAlt == nil) != (want.BestAlt == nil) ||
					got.BestAlt != nil && (got.BestAlt.Link != want.BestAlt.Link || got.BestAlt.RTTMs != want.BestAlt.RTTMs) {
					t.Fatalf("TopK=%d prefix %d %s: options=%d preferred=%d best=%+v, want options=%d preferred=%d best=%+v",
						topK, p.ID, name, got.Options, got.Preferred.Link, got.BestAlt,
						want.Options, want.Preferred.Link, want.BestAlt)
				}
			}
			if topK > 0 && lat.Options > topK {
				t.Fatalf("TopK=%d prefix %d: %d options", topK, p.ID, lat.Options)
			}
		}
	}
}
