package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"beatbgp/internal/core"
	"beatbgp/internal/loadgen"
	"beatbgp/internal/serve/chaos"
)

func mustChaos(t testing.TB, cfg chaos.Config) *chaos.Injector {
	t.Helper()
	inj, err := chaos.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// epochStart returns the sim instant selecting epoch e for latency
// queries.
func epochStart(w *core.World, e int) float64 { return w.Epochs.Epoch(e).Start }

// TestServeAdmissionShed: with one execution slot, no waiting room, and
// a stalled repair chain, concurrent queries shed with a typed 429-class
// error whose text is fixed — and the gate recovers once the slot frees.
func TestServeAdmissionShed(t *testing.T) {
	w := smallWorld(t, 42)
	srv := New(w, WithAdmission(1, 0))
	srv.SetChaos(mustChaos(t, chaos.Config{Seed: 1, StallP: 1, StallMs: 400}))

	hold := make(chan error, 1)
	go func() {
		_, err := srv.AnswerLatency(0, epochStart(w, 0))
		hold <- err
	}()
	// Let the holder take the slot and enter its stall.
	time.Sleep(50 * time.Millisecond)

	_, err := srv.AnswerLatency(1, epochStart(w, 0))
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("concurrent query got %v, want ErrOverload", err)
	}
	const wantMsg = "overloaded: 1 queries in flight and 0 queued"
	if err.Error() != wantMsg {
		t.Fatalf("shed error text %q, want %q (must be deterministic)", err.Error(), wantMsg)
	}
	if herr := <-hold; herr != nil {
		t.Fatalf("slot holder failed: %v", herr)
	}
	// Slot free again: same query now runs.
	srv.SetChaos(nil)
	if _, err := srv.AnswerLatency(1, epochStart(w, 0)); err != nil {
		t.Fatalf("post-overload query failed: %v", err)
	}
}

// TestServeAdmissionQueue: the waiting room admits exactly MaxQueue
// beyond the in-flight limit; the rest shed immediately. Counts are
// deterministic even though which query lands where is not.
func TestServeAdmissionQueue(t *testing.T) {
	w := smallWorld(t, 42)
	srv := New(w, WithAdmission(1, 2))
	srv.SetChaos(mustChaos(t, chaos.Config{Seed: 1, StallP: 1, StallMs: 500}))

	hold := make(chan error, 1)
	go func() {
		_, err := srv.AnswerLatency(0, epochStart(w, 0))
		hold <- err
	}()
	time.Sleep(50 * time.Millisecond)

	var wg sync.WaitGroup
	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := srv.AnswerLatency(1+i, epochStart(w, 0))
			results <- err
		}(i)
	}
	wg.Wait()
	close(results)
	var ok, shed int
	for err := range results {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverload):
			shed++
		default:
			t.Fatalf("unexpected error class: %v", err)
		}
	}
	if ok != 2 || shed != 2 {
		t.Fatalf("queue of 2: got %d served, %d shed; want 2 and 2", ok, shed)
	}
	<-hold
}

// TestServeDeadline: a stalled chain is cut at the per-query deadline
// with ErrDeadline — and without a configured deadline the same stall
// is simply waited out (no timeouts without a deadline).
func TestServeDeadline(t *testing.T) {
	w := smallWorld(t, 42)
	srv := New(w, WithQueryTimeout(50*time.Millisecond))
	srv.SetChaos(mustChaos(t, chaos.Config{Seed: 2, StallP: 1, StallMs: 10_000}))

	t0 := time.Now()
	_, err := srv.AnswerLatency(0, epochStart(w, 0))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("stalled query got %v, want ErrDeadline", err)
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("deadline cut took %v, stall leaked through", el)
	}

	// No deadline configured: the stall is honored, the query succeeds.
	patient := New(w)
	patient.SetChaos(mustChaos(t, chaos.Config{Seed: 2, StallP: 1, StallMs: 80}))
	if _, err := patient.AnswerLatency(0, epochStart(w, 0)); err != nil {
		t.Fatalf("undeadlined query through a short stall failed: %v", err)
	}
}

// TestServeDegradedFallbackAndBreaker: once a chain has served an
// epoch, injected repair failures at later epochs fall back to the
// last-good answer with degraded:true — and the circuit breaker stops
// hammering the failing chain after its threshold.
func TestServeDegradedFallbackAndBreaker(t *testing.T) {
	w := smallWorld(t, 42)
	if w.Epochs.Len() < 2 {
		t.Skip("world has a single epoch")
	}
	srv := New(w, WithBreaker(3, time.Hour)) // no half-open probes
	const prefix = 0
	origin := w.Topo.Prefixes[prefix].Origin

	// Warm epoch 0 on the chain.
	warm, err := srv.AnswerLatency(prefix, epochStart(w, 0))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Degraded {
		t.Fatal("healthy answer marked degraded")
	}

	inj := mustChaos(t, chaos.Config{Seed: 3, RepairErrP: 1})
	srv.SetChaos(inj)
	tLater := epochStart(w, 1)
	laterEpoch := w.Epochs.At(tLater)
	for i := 0; i < 10; i++ {
		resp, err := srv.AnswerLatency(prefix, tLater)
		if err != nil {
			t.Fatalf("query %d: %v (degraded fallback must answer)", i, err)
		}
		if !resp.Degraded {
			t.Fatalf("query %d: fallback answer not marked degraded", i)
		}
		if resp.Epoch != 0 {
			t.Fatalf("query %d: degraded answer reports epoch %d, want last-good 0", i, resp.Epoch)
		}
	}
	// Breaker threshold 3: the chain was attempted exactly 3 times; the
	// other 7 queries served the fallback without touching it.
	if got := inj.Attempts(origin, laterEpoch); got != 3 {
		t.Fatalf("failing chain attempted %d times, want 3 (breaker open)", got)
	}

	// Recovery: chaos off, cooldown elapsed → probe succeeds, answers
	// come back healthy.
	quick := New(w, WithBreaker(3, time.Millisecond))
	if _, err := quick.AnswerLatency(prefix, epochStart(w, 0)); err != nil {
		t.Fatal(err)
	}
	quick.SetChaos(mustChaos(t, chaos.Config{Seed: 3, RepairErrP: 1}))
	for i := 0; i < 4; i++ {
		if _, err := quick.AnswerLatency(prefix, tLater); err != nil {
			t.Fatal(err)
		}
	}
	quick.SetChaos(nil)
	time.Sleep(5 * time.Millisecond)
	resp, err := quick.AnswerLatency(prefix, tLater)
	if err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
	if resp.Degraded {
		t.Fatal("chain healed but answer still degraded")
	}
	if resp.Epoch != laterEpoch {
		t.Fatalf("healed answer at epoch %d, want %d", resp.Epoch, laterEpoch)
	}
}

// TestServeCatchmentDegraded: the anycast chain has the same fallback
// contract as the per-origin chains.
func TestServeCatchmentDegraded(t *testing.T) {
	w := smallWorld(t, 42)
	if w.Epochs.Len() < 2 {
		t.Skip("world has a single epoch")
	}
	srv := New(w, WithBreaker(3, time.Hour))
	warm, err := srv.AnswerCatchment(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj := mustChaos(t, chaos.Config{Seed: 4, RepairErrP: 1})
	srv.SetChaos(inj)
	for i := 0; i < 10; i++ {
		resp, err := srv.AnswerCatchment(0, 1)
		if err != nil {
			t.Fatalf("query %d: degraded catchment: %v", i, err)
		}
		if !resp.Degraded || resp.Epoch != 0 {
			t.Fatalf("query %d: fallback catchment %+v, want degraded at epoch 0", i, resp)
		}
		if resp.Site != warm.Site {
			t.Fatalf("query %d: fallback site %d != last-good site %d", i, resp.Site, warm.Site)
		}
	}
	// Same breaker contract as the origin chains: 3 attempts, then open.
	if got := inj.Attempts(-1, 1); got != 3 {
		t.Fatalf("failing anycast chain attempted %d times, want 3 (breaker open)", got)
	}
}

// TestServeColdChainUnavailable: with no warm epoch to fall back to, a
// failing chain is a typed 503-class error, never a hang or a zero
// answer.
func TestServeColdChainUnavailable(t *testing.T) {
	w := smallWorld(t, 42)
	srv := New(w, WithBreaker(3, time.Hour))
	srv.SetChaos(mustChaos(t, chaos.Config{Seed: 5, RepairErrP: 1}))
	_, err := srv.AnswerLatency(0, epochStart(w, 0))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("cold failing chain got %v, want ErrUnavailable", err)
	}
	// Once the breaker opens, the error text is the fixed circuit-open
	// form.
	origin := w.Topo.Prefixes[0].Origin
	for i := 0; i < 3; i++ {
		srv.AnswerLatency(0, epochStart(w, 0))
	}
	_, err = srv.AnswerLatency(0, epochStart(w, 0))
	want := fmt.Sprintf("unavailable: origin %d repair chain circuit open", origin)
	if err == nil || err.Error() != want {
		t.Fatalf("open-circuit error %q, want %q", err, want)
	}
	// The anycast chain's circuit-open form.
	for i := 0; i < 3; i++ {
		if _, err := srv.AnswerCatchment(0, 0); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("cold failing anycast chain got %v, want ErrUnavailable", err)
		}
	}
	_, err = srv.AnswerCatchment(0, 0)
	if want := "unavailable: anycast repair chain circuit open"; err == nil || err.Error() != want {
		t.Fatalf("open-circuit error %q, want %q", err, want)
	}
}

// TestServeDegradedBytesDeterministic: the satellite gate — shed and
// degraded response bytes are identical across independent runs at a
// fixed seed, over both the library and HTTP forms.
func TestServeDegradedBytesDeterministic(t *testing.T) {
	w := smallWorld(t, 42)
	if w.Epochs.Len() < 2 {
		t.Skip("world has a single epoch")
	}
	run := func() ([]byte, []byte) {
		srv := New(w, WithBreaker(3, time.Hour))
		if _, err := srv.AnswerLatency(0, epochStart(w, 0)); err != nil {
			t.Fatal(err)
		}
		srv.SetChaos(mustChaos(t, chaos.Config{Seed: 6, RepairErrP: 1}))
		resp, err := srv.AnswerLatency(0, epochStart(w, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Degraded {
			t.Fatal("expected a degraded answer")
		}
		lib, err := Encode(resp)
		if err != nil {
			t.Fatal(err)
		}
		// HTTP form over the same server state: must be the same bytes.
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown(context.Background())
		httpResp, err := http.Get(fmt.Sprintf("http://%s/latency?prefix=0&t=%g", addr, epochStart(w, 1)))
		if err != nil {
			t.Fatal(err)
		}
		defer httpResp.Body.Close()
		httpBytes, err := io.ReadAll(httpResp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if httpResp.StatusCode != http.StatusOK {
			t.Fatalf("degraded HTTP answer status %d: %s", httpResp.StatusCode, httpBytes)
		}
		return lib, httpBytes
	}
	lib1, http1 := run()
	lib2, http2 := run()
	if !bytes.Equal(lib1, lib2) {
		t.Fatalf("degraded library bytes differ across runs:\n%s\n%s", lib1, lib2)
	}
	if !bytes.Equal(lib1, http1) || !bytes.Equal(http1, http2) {
		t.Fatalf("library/HTTP degraded bytes differ:\nlib:  %s\nhttp: %s\nhttp2: %s", lib1, http1, http2)
	}
	if !bytes.Contains(lib1, []byte(`"degraded":true`)) {
		t.Fatalf("degraded marker missing: %s", lib1)
	}

	// Healthy responses must not carry the marker at all — the PR-8
	// byte contract is preserved.
	srv := New(w)
	resp, err := srv.AnswerLatency(0, epochStart(w, 0))
	if err != nil {
		t.Fatal(err)
	}
	healthy, _ := Encode(resp)
	if bytes.Contains(healthy, []byte("degraded")) {
		t.Fatalf("healthy answer leaks the degraded field: %s", healthy)
	}
}

// TestServeShedBytesDeterministic: a 429 shed over HTTP has fixed bytes
// and a Retry-After header.
func TestServeShedBytesDeterministic(t *testing.T) {
	w := smallWorld(t, 42)
	srv := New(w, WithAdmission(1, 0))
	srv.SetChaos(mustChaos(t, chaos.Config{Seed: 7, StallP: 1, StallMs: 500}))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + addr.String()

	hold := make(chan struct{})
	go func() {
		defer close(hold)
		http.Get(base + "/latency?prefix=0&t=0")
	}()
	time.Sleep(50 * time.Millisecond)

	want, err := Encode(ErrorResp{Error: "overloaded: 1 queries in flight and 0 queued"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Get(base + "/latency?prefix=1&t=0")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("shed status %d (%s), want 429", resp.StatusCode, b)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
		if !bytes.Equal(b, want) {
			t.Fatalf("shed bytes %q, want %q", b, want)
		}
	}
	<-hold
}

// TestServeHealthReadyDrain: /healthz is liveness (always ok), /readyz
// flips to 503 draining while queries still complete — the
// load-balancer drain window.
func TestServeHealthReadyDrain(t *testing.T) {
	w := smallWorld(t, 42)
	srv := New(w)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	check := func(path string, wantCode int, wantBody HealthResp) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want, _ := Encode(wantBody)
		if resp.StatusCode != wantCode || !bytes.Equal(b, want) {
			t.Fatalf("%s: status %d body %q, want %d %q", path, resp.StatusCode, b, wantCode, want)
		}
	}
	check("/healthz", http.StatusOK, HealthResp{Query: "healthz", Status: "ok"})
	check("/readyz", http.StatusOK, HealthResp{Query: "readyz", Status: "ready"})

	srv.StartDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	check("/healthz", http.StatusOK, HealthResp{Query: "healthz", Status: "ok"})
	check("/readyz", http.StatusServiceUnavailable, HealthResp{Query: "readyz", Status: "draining"})
	// Queries still complete during the drain window.
	if b := httpAnswer(t, base, query{http.MethodGet, "/world", ""}); len(b) == 0 {
		t.Fatal("query during drain window failed")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A restart resets readiness.
	addr2, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base = "http://" + addr2.String()
	check("/readyz", http.StatusOK, HealthResp{Query: "readyz", Status: "ready"})
}

// TestServeValidationErrorText: the satellite gate — validation errors
// enumerate the valid kinds and ranges with exact, asserted text
// (mirroring the cmd/beatbgp flag-validation error convention).
func TestServeValidationErrorText(t *testing.T) {
	w := smallWorld(t, 42)
	srv := New(w)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + addr.String()
	nPrefixes := len(w.Topo.Prefixes)
	nEpochs := w.Epochs.Len()

	cases := []struct {
		q        query
		wantCode int
		wantErr  string
	}{
		{query{http.MethodGet, "/catchment", ""}, 400,
			fmt.Sprintf("bad query: prefix parameter is required (valid prefixes: [0,%d))", nPrefixes)},
		{query{http.MethodGet, "/latency", ""}, 400,
			fmt.Sprintf("bad query: prefix parameter is required (valid prefixes: [0,%d))", nPrefixes)},
		{query{http.MethodGet, "/catchment?prefix=999999", ""}, 400,
			fmt.Sprintf("bad query: prefix 999999 out of range [0,%d)", nPrefixes)},
		{query{http.MethodGet, fmt.Sprintf("/catchment?prefix=0&epoch=%d", nEpochs), ""}, 400,
			fmt.Sprintf("bad query: epoch %d out of range [0,%d)", nEpochs, nEpochs)},
		{query{http.MethodPost, "/whatif", `{"kind":"nope","prefix":0}`}, 400,
			`bad query: kind "nope" is not a what-if query (valid kinds: catchment, latency)`},
		{query{http.MethodGet, "/nope", ""}, 404,
			`unknown path "/nope" (valid queries: ` + validEndpoints + `)`},
		{query{http.MethodGet, "/catchment/extra", ""}, 404,
			`unknown path "/catchment/extra" (valid queries: ` + validEndpoints + `)`},
	}
	for _, c := range cases {
		var resp *http.Response
		var err error
		if c.q.method == http.MethodGet {
			resp, err = http.Get(base + c.q.path)
		} else {
			resp, err = http.Post(base+c.q.path, "application/json", strings.NewReader(c.q.body))
		}
		if err != nil {
			t.Fatalf("%s %s: %v", c.q.method, c.q.path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want, _ := Encode(ErrorResp{Error: c.wantErr})
		if resp.StatusCode != c.wantCode {
			t.Fatalf("%s %s: status %d (%s), want %d", c.q.method, c.q.path, resp.StatusCode, b, c.wantCode)
		}
		if !bytes.Equal(b, want) {
			t.Fatalf("%s %s:\n got: %s\nwant: %s", c.q.method, c.q.path, b, want)
		}
	}
}

// TestServeBodyRobustness: malformed, truncated, oversized, and
// unknown-field bodies are all 400s with a JSON error — never a 500, a
// hang, or an accepted query.
func TestServeBodyRobustness(t *testing.T) {
	w := smallWorld(t, 42)
	srv := New(w)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + addr.String()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	cases := []struct {
		name, path, body string
		wantErr          string // empty: only assert 400 + JSON error
	}{
		{"malformed", "/whatif", `{]`, ""},
		{"truncated", "/whatif", `{"kind":"latency","pre`, ""},
		{"empty", "/whatif", ``, ""},
		{"unknown field", "/whatif", `{"zork":1}`, `bad query: body: json: unknown field "zork"`},
		{"trailing garbage", "/whatif", `{"kind":"latency","prefix":0} {"again":1}`, "bad query: body: trailing data after JSON value"},
		{"wrong type", "/whatif", `{"prefix":"zero"}`, ""},
		{"epoch unknown field", "/epoch", `{"advnce":3}`, `bad query: body: json: unknown field "advnce"`},
		{"epoch malformed", "/epoch", `[1,2`, ""},
		{"oversized", "/whatif", `{"kind":"` + strings.Repeat("x", 2<<20) + `"}`,
			fmt.Sprintf("bad query: body exceeds %d bytes", 1<<20)},
	}
	for _, c := range cases {
		code, b := post(c.path, c.body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%.120s), want 400", c.name, code, b)
		}
		if !bytes.Contains(b, []byte(`"error"`)) {
			t.Fatalf("%s: body %q is not a JSON error", c.name, b)
		}
		if c.wantErr != "" {
			want, _ := Encode(ErrorResp{Error: c.wantErr})
			if !bytes.Equal(b, want) {
				t.Fatalf("%s:\n got: %s\nwant: %s", c.name, b, want)
			}
		}
	}
}

// TestServeNoGoroutineLeak: a chaotic concurrent burst with deadlines,
// shedding, and degraded fallbacks must leave no goroutines behind.
func TestServeNoGoroutineLeak(t *testing.T) {
	w := smallWorld(t, 42)
	before := runtime.NumGoroutine()

	srv := New(w, WithAdmission(4, 8), WithQueryTimeout(30*time.Millisecond), WithBreaker(3, 10*time.Millisecond))
	srv.SetChaos(mustChaos(t, chaos.Config{Seed: 8, LatencyP: 0.2, LatencyMeanMs: 1, RepairErrP: 0.3, StallP: 0.3, StallMs: 50}))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				p := (g*31 + i) % len(w.Topo.Prefixes)
				e := i % w.Epochs.Len()
				if i%3 == 0 {
					srv.AnswerCatchment(p, e)
				} else {
					srv.AnswerLatency(p, epochStart(w, e))
				}
			}
		}(g)
	}
	wg.Wait()

	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before %d, after %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeLoadTargetForms: the library target and the HTTP target
// answer the same deterministic fleet with the same status codes.
func TestServeLoadTargetForms(t *testing.T) {
	w := smallWorld(t, 42)
	cfg := loadgen.Config{
		Seed:        11,
		Clients:     50_000,
		SessionRate: 2e-3,
		Ticks:       5,
		Regions: []loadgen.Region{
			{Name: "all", Weight: 1, PrefixLo: 0, PrefixHi: len(w.Topo.Prefixes)},
		},
		CatchmentFrac: 0.5,
		Workers:       4,
		Buffer:        1 << 16, // no client-side drops: compare full streams
	}

	libSrv := New(w)
	libRep, err := loadgen.Run(context.Background(), cfg, libSrv.LoadTarget())
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := New(w)
	addr, err := httpSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer httpSrv.Shutdown(context.Background())
	httpRep, err := loadgen.Run(context.Background(), cfg, &loadgen.HTTPTarget{Base: "http://" + addr.String()})
	if err != nil {
		t.Fatal(err)
	}

	if libRep.Offered != httpRep.Offered {
		t.Fatalf("offered streams differ: %d vs %d (generator not deterministic)", libRep.Offered, httpRep.Offered)
	}
	if libRep.Dropped != 0 || httpRep.Dropped != 0 {
		t.Fatalf("unexpected client-side drops: lib %d http %d", libRep.Dropped, httpRep.Dropped)
	}
	if libRep.Codes[200] != libRep.Sent {
		t.Fatalf("library form: %v, want all 200s", libRep.Codes)
	}
	if httpRep.Codes[200] != httpRep.Sent {
		t.Fatalf("HTTP form: %v, want all 200s", httpRep.Codes)
	}
}

// FuzzServeHandler: arbitrary methods, paths, queries, and bodies must
// never panic the handler or produce a non-JSON response; statuses stay
// in the typed set.
func FuzzServeHandler(f *testing.F) {
	w := smallWorld(f, 42)
	srv := New(w, WithAdmission(8, 8), WithQueryTimeout(time.Second))
	h := srv.Handler()

	f.Add("GET", "/catchment?prefix=0", "")
	f.Add("GET", "/latency?prefix=0&t=1.5", "")
	f.Add("GET", "/latency?prefix=-1&t=xx", "")
	f.Add("POST", "/whatif", `{"kind":"latency","prefix":0}`)
	f.Add("POST", "/whatif", `{"deltas":[{"Down":[0]}],"kind":"catchment","prefix":1}`)
	f.Add("POST", "/epoch", `{"set":1}`)
	f.Add("PUT", "/epoch", `{"advance":`)
	f.Add("GET", "/healthz", "")
	f.Add("DELETE", "/nope", "\x00\xff")
	f.Add("GET", "/catchment?prefix=99999999999999999999", "")

	okStatus := map[int]bool{200: true, 400: true, 404: true, 405: true, 429: true, 500: true, 503: true, 504: true}
	f.Fuzz(func(t *testing.T, method, path, body string) {
		if len(path) > 512 || len(body) > 4096 {
			return
		}
		req, err := http.NewRequest(method, "http://fuzz"+path, strings.NewReader(body))
		if err != nil {
			return // unbuildable request, not a handler problem
		}
		if !strings.HasPrefix(path, "/") {
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if !okStatus[rec.Code] {
			t.Fatalf("%s %q -> unexpected status %d (%s)", method, path, rec.Code, rec.Body.Bytes())
		}
		b := rec.Body.Bytes()
		if len(b) == 0 {
			t.Fatalf("%s %q -> empty body", method, path)
		}
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatalf("%s %q -> non-JSON body %q: %v", method, path, b, err)
		}
	})
}
