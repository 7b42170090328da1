package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own load generator. internal/loadgen.Run times each
// query from dispatch and drops arrivals client-side when its buffer
// fills, so a stalled daemon would look fast; this one counts every
// scheduled request as attempted, times open-loop requests from the
// instant they were due, and records how late it sent them.

// request is one pre-generated query. id indexes the verifier's table of
// expected response bodies, so equal ids must mean equal answers.
type request struct {
	id     int
	kind   uint8
	method string
	path   string // path and query, appended to the target's base URL
	body   string
	// The query as the library form takes it (the traced pass calls
	// both forms): prefix, minute for latency, epoch for catchment
	// (-1: the live cursor).
	prefix int
	t      float64
	epoch  int
}

// Request kinds, for the per-kind latency split.
const (
	kindLatency uint8 = iota
	kindCatchment
	kindWhatIf
	kindEpoch
)

// sample is the outcome of one attempted request.
type sample struct {
	idx    int // position of the request in the list it was drawn from
	kind   uint8
	status int           // HTTP status; 0 when the request got none
	ok     bool          // answered 200 with the expected bytes
	lat    time.Duration // closed loop: from send; open loop: from the due instant
	late   time.Duration // open loop: how long after its due instant it was sent
}

// target is what the generator drives: conn names the caller's own
// connection (0 ≤ conn < callers), so an implementation can pin one
// socket per caller.
type target interface {
	do(conn int, r *request) (status int, body []byte, err error)
}

// verifier decides whether a 200 response carries the right bytes; nil
// accepts every body.
type verifier func(r *request, body []byte) bool

func attempt(t target, conn int, r *request, verify verifier) (status int, ok bool) {
	status, body, err := t.do(conn, r)
	if err != nil {
		return 0, false
	}
	return status, status == http.StatusOK && (verify == nil || verify(r, body))
}

// runClosed drives callers closed loops (each sends its next request
// when the previous one returned) over reqs. With dur > 0 the callers
// cycle through reqs until dur has passed; with dur == 0 they share one
// pass over the list and stop at its end. Returns every sample and the
// wall time of the phase.
func runClosed(t target, callers int, reqs []request, dur time.Duration, verify verifier) ([]sample, time.Duration) {
	var next atomic.Int64
	perCaller := make([][]sample, callers)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if dur == 0 && i >= len(reqs) {
					return
				}
				if dur > 0 && time.Since(start) >= dur {
					return
				}
				r := &reqs[i%len(reqs)]
				t0 := time.Now()
				status, ok := attempt(t, c, r, verify)
				perCaller[c] = append(perCaller[c], sample{idx: i % len(reqs), kind: r.kind, status: status, ok: ok, lat: time.Since(t0)})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var out []sample
	for _, s := range perCaller {
		out = append(out, s...)
	}
	return out, wall
}

// poissonSchedule returns the due offsets of an open-loop phase: Poisson
// arrivals at rate per second over dur, fixed before the phase starts so
// a slow target cannot thin its own load.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// openGrace is how long past the last due instant an open-loop phase
// keeps sending before it writes the rest of the schedule off as failed.
const openGrace = 2 * time.Second

// runOpen sends request i (cycling reqs) at due[i] on whichever of the
// callers connections is free first. A connection that is still busy
// when a request falls due sends it late; latency runs from the due
// instant either way, so a stall is charged to every request that
// queued behind it. Requests not sent within openGrace of the end of
// the schedule are returned as failed samples: every scheduled request
// is an attempt.
func runOpen(t target, callers int, reqs []request, due []time.Duration, verify verifier) []sample {
	out := make([]sample, len(due))
	if len(due) == 0 {
		return out
	}
	var next atomic.Int64
	start := time.Now()
	cutoff := due[len(due)-1] + openGrace
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				r := &reqs[i%len(reqs)]
				out[i].idx, out[i].kind = i%len(reqs), r.kind
				waitUntil(start.Add(due[i]))
				sent := time.Since(start)
				if sent > cutoff {
					out[i].late = sent - due[i]
					out[i].lat = out[i].late
					continue // written off; keep draining so every slot is filled
				}
				status, ok := attempt(t, c, r, verify)
				out[i] = sample{idx: i % len(reqs), kind: r.kind, status: status, ok: ok, lat: time.Since(start) - due[i], late: sent - due[i]}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// waitUntil sleeps to just short of the instant and yields through the
// rest: time.Sleep alone overshoots by a scheduler tick, which at
// thousands of requests per second is most of the gap between two.
func waitUntil(at time.Time) {
	const spin = 200 * time.Microsecond
	if d := time.Until(at); d > spin {
		time.Sleep(d - spin)
	}
	for time.Now().Before(at) {
		runtime.Gosched()
	}
}

// httpTarget drives a live daemon over loopback, one keep-alive
// connection per caller.
type httpTarget struct {
	base    string
	clients []*http.Client
}

func newHTTPTarget(base string, callers int) *httpTarget {
	t := &httpTarget{base: base}
	for i := 0; i < callers; i++ {
		t.clients = append(t.clients, &http.Client{
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
			},
			// Far above the daemon's own -query-timeout: only a hung
			// daemon trips it, and then the request counts as failed.
			Timeout: 30 * time.Second,
		})
	}
	return t
}

func (t *httpTarget) do(conn int, r *request) (int, []byte, error) {
	var body io.Reader
	if r.body != "" {
		body = bytes.NewReader([]byte(r.body))
	}
	req, err := http.NewRequest(r.method, t.base+r.path, body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", r.method, r.path, err)
	}
	if r.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.clients[conn].Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: read body: %w", r.method, r.path, err)
	}
	return resp.StatusCode, b, nil
}

func (t *httpTarget) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
}
