package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"beatbgp/internal/core"
	"beatbgp/internal/serve/chaos"
	"beatbgp/internal/stats"
	"beatbgp/internal/xrand"
)

// TestStressServeOverload is the overload soak (`make stress-serve`,
// race-enabled): soak's open-loop flash crowd drives a live listener
// far past its admission capacity while chaos stalls and errors hit the
// repair chains. Graceful degradation means every refusal is typed —
// 429 from the gate, 503/504 from broken or slow chains, never a
// transport-level failure — the p99 of admitted queries stays bounded
// by the deadline, fallback answers are explicitly marked degraded,
// and the daemon returns to its pre-soak goroutine count afterwards.
func TestStressServeOverload(t *testing.T) {
	if os.Getenv("STRESS_SERVE") == "" {
		t.Skip("set STRESS_SERVE=1 (or run `make stress-serve`) for the overload soak")
	}
	before := runtime.NumGoroutine()

	s, err := core.NewScenario(core.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}

	// The gate is sized well below the fleet's worker count (64) so the
	// flash crowd saturates it even when the race detector slows the
	// whole process down — the soak's point is the shedding behavior,
	// not the absolute capacity.
	const queryTimeout = 250 * time.Millisecond
	srv := New(w, WithAdmission(4, 4), WithQueryTimeout(queryTimeout))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	// Warm the anycast chain and a spread of origin chains at epoch 0 so
	// the chaos phase has installed epochs to fall back on — the same
	// "last good answer" an operator would have after any healthy uptime.
	client := benchClient()
	nP := len(w.Topo.Prefixes)
	for p := 0; p < nP; p += 7 {
		if _, err := benchGet(client, base+"/catchment?prefix="+strconv.Itoa(p)); err != nil {
			t.Fatal(err)
		}
		if _, err := benchGet(client, base+"/latency?prefix="+strconv.Itoa(p)+"&t=0"); err != nil {
			t.Fatal(err)
		}
	}

	// Chaos: a quarter of repair attempts fail outright, a tenth stall
	// for 100ms against the 250ms query deadline.
	srv.SetChaos(mustChaos(t, chaos.Config{
		Seed:       42,
		RepairErrP: 0.25,
		StallP:     0.10,
		StallMs:    100,
	}))

	rep := soak(base, nP, client)
	t.Logf("soak: %s", rep.String())
	t.Logf("soak OK tail: p50 %.2fms p99 %.2fms p99.9 %.2fms shed %.1f%% degraded %d",
		rep.OKP50Ms, rep.OKP99Ms, rep.OKP999Ms, rep.ShedPct(), rep.Degraded)

	// The gate actually shed under the flash crowd, with typed 429s.
	if rep.Shed() == 0 {
		t.Errorf("flash crowd at 5x never tripped the admission gate: %s", rep.String())
	}
	// Some admitted work completed, and some answers were degraded
	// fallbacks — explicitly marked, with a quarter of repairs failing.
	if rep.OK() == 0 {
		t.Errorf("no query succeeded during the soak: %s", rep.String())
	}
	if rep.Degraded == 0 {
		t.Errorf("chaos repair errors produced no marked-degraded fallbacks: %s", rep.String())
	}
	// Every refusal is typed: no transport-level failures, no untyped
	// statuses. 400s are legitimately unresolvable prefixes.
	for code := range rep.Codes {
		switch code {
		case 200, 400, 429, 503, 504:
		default:
			t.Errorf("untyped status %d (%d queries): %s", code, rep.Codes[code], rep.String())
		}
	}
	// The tail of admitted-and-served queries stays bounded by the
	// serving deadline — overload pushes excess into 429s, not into an
	// unbounded served tail.
	boundMs := 2 * float64(queryTimeout/time.Millisecond)
	if rep.OKP99Ms > boundMs {
		t.Errorf("admitted p99 %.1fms exceeds %.0fms bound: %s", rep.OKP99Ms, boundMs, rep.String())
	}

	// Drain and verify the goroutine count recovers: no leaked workers,
	// timers, or stuck repair chains.
	client.CloseIdleConnections()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+5 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after soak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// soakReport is the soak driver's tally: open-loop accounting (offered
// vs sent; the rest found the buffer full and were dropped client-side),
// counts by HTTP status (0 = transport failure), degraded answers, and
// the latency tail of the admitted-and-served (200) queries.
type soakReport struct {
	Offered, Sent              int
	Codes                      map[int]int
	Degraded                   int
	Elapsed                    time.Duration
	OKP50Ms, OKP99Ms, OKP999Ms float64
}

func (r soakReport) OK() int   { return r.Codes[http.StatusOK] }
func (r soakReport) Shed() int { return r.Codes[http.StatusTooManyRequests] }

// ShedPct is the shed share of the sent queries, in percent.
func (r soakReport) ShedPct() float64 { return 100 * float64(r.Shed()) / float64(max(r.Sent, 1)) }

func (r soakReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered %d sent %d dropped %d in %v", r.Offered, r.Sent, r.Offered-r.Sent, r.Elapsed.Round(time.Millisecond))
	codes := make([]int, 0, len(r.Codes))
	for c := range r.Codes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(&b, " %d:%d", c, r.Codes[c])
	}
	fmt.Fprintf(&b, " degraded:%d", r.Degraded)
	return b.String()
}

// soak offers the flash crowd to the daemon at base, open loop: each
// 2ms tick draws a Poisson number of sessions (mean 100, 5x on ticks
// [100,200)) from xrand.Derive(seed, tick), 30% catchment queries and
// the rest latency queries at the tick's instant, over uniform
// prefixes. 64 workers drain a 256-deep buffer with a 1s deadline per
// query; offers that find the buffer full are dropped. The run stops
// after 300 ticks or 60,000 offers.
func soak(base string, nPrefixes int, client *http.Client) soakReport {
	const seed, ticks, maxOffered, workers = 42, 300, 60_000, 64
	rep := soakReport{Codes: make(map[int]int)}
	okMs := stats.NewSketch()
	var mu sync.Mutex
	var wg sync.WaitGroup
	queue := make(chan string, 256)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for url := range queue {
				t0 := time.Now()
				code, degraded := soakGet(client, url)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				rep.Codes[code]++
				if degraded {
					rep.Degraded++
				}
				if code == http.StatusOK {
					okMs.Add(ms)
				}
				mu.Unlock()
			}
		}()
	}
	pace := time.NewTicker(2 * time.Millisecond)
	defer pace.Stop()
	offered, sent := 0, 0
	for tick := 0; tick < ticks && offered < maxOffered; tick++ {
		mean := 100.0
		if tick >= 100 && tick < 200 {
			mean *= 5
		}
		rng := xrand.Derive(seed, uint64(tick))
		for n := rng.Poisson(mean); n > 0 && offered < maxOffered; n-- {
			p := rng.Intn(nPrefixes)
			url := fmt.Sprintf("%s/latency?prefix=%d&t=%d", base, p, tick)
			if rng.Bool(0.3) {
				url = fmt.Sprintf("%s/catchment?prefix=%d", base, p)
			}
			offered++
			select {
			case queue <- url:
				sent++
			default: // open loop: the buffer is full, the client walks away
			}
		}
		<-pace.C
	}
	close(queue)
	wg.Wait()
	rep.Offered, rep.Sent, rep.Elapsed = offered, sent, time.Since(start)
	if okMs.N() > 0 {
		rep.OKP50Ms, rep.OKP99Ms, rep.OKP999Ms = okMs.Quantile(0.50), okMs.Quantile(0.99), okMs.Quantile(0.999)
	}
	return rep
}

// soakGet issues one soak query under its 1s deadline and reports the
// status (0 on a transport failure) and the body's degraded marker.
func soakGet(client *http.Client, url string) (code int, degraded bool) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil) // soak URLs are well-formed
	resp, err := client.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var body struct {
		Degraded bool `json:"degraded"`
	}
	b, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(b, &body)
	return resp.StatusCode, body.Degraded
}
