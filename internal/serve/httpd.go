package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"beatbgp/internal/serve/chaos"
)

// Encode is the single JSON encoder for every answer, library or HTTP:
// deterministic field order (struct-driven), no indentation, one
// trailing newline. The byte-identity tests compare daemon responses
// against Encode of the library answer, so handlers must write exactly
// these bytes.
func Encode(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ErrorResp is the JSON shape of every failed query.
type ErrorResp struct {
	Error string `json:"error"`
}

// HealthResp is the JSON shape of the liveness/readiness probes.
type HealthResp struct {
	Query  string `json:"query"`
	Status string `json:"status"`
}

const (
	// maxBodyBytes bounds POST bodies; larger requests are rejected
	// with 400 before the decoder buffers them.
	maxBodyBytes = 1 << 20

	// readHeaderTimeout/idleTimeout guard the listener against
	// slowloris-style connection squatting: a client gets 5s to
	// produce its request header and idle keep-alives are cut after
	// 2 minutes.
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// validEndpoints enumerates the query surface for unknown-path errors.
const validEndpoints = "GET /world, GET /catchment, GET /latency, POST /whatif, GET|POST /epoch, GET /healthz, GET /readyz"

// Handler returns the daemon's HTTP surface:
//
//	GET  /world                          world shape + content key
//	GET  /catchment?prefix=N[&epoch=E]   anycast catchment (default: live cursor)
//	GET  /latency?prefix=N[&t=MIN]       BGP-preferred vs best top-TopK alternate (default t: cursor epoch start)
//	POST /whatif                         WhatIfReq body: deltas + nested query
//	GET  /epoch                          read the live epoch cursor
//	POST /epoch                          {"advance":N} or {"set":E} moves it
//	GET  /healthz                        liveness: 200 while the process serves
//	GET  /readyz                         readiness: 200, or 503 once draining
//
// Failed queries map by error class: ErrBadQuery → 400, ErrOverload →
// 429 (Retry-After: 1), ErrUnavailable → 503 (Retry-After: 1),
// ErrDeadline → 504, anything else → 500. Query handlers run under the
// request's context, so client disconnects and the server's per-query
// deadline propagate into the repair chains.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/world", func(w http.ResponseWriter, r *http.Request) {
		if !wantMethod(w, r, http.MethodGet) {
			return
		}
		writeAnswer(w, s.AnswerWorld(), nil)
	})
	mux.HandleFunc("/catchment", func(w http.ResponseWriter, r *http.Request) {
		if !wantMethod(w, r, http.MethodGet) {
			return
		}
		prefix, err := intParam(r, "prefix", -1)
		if err == nil && prefix < 0 {
			err = badQuery("prefix parameter is required (valid prefixes: [0,%d))", len(s.w.Topo.Prefixes))
		}
		epoch := -1
		if err == nil {
			epoch, err = intParam(r, "epoch", -1)
		}
		if err != nil {
			writeAnswer(w, nil, err)
			return
		}
		resp, err := s.AnswerCatchmentContext(r.Context(), prefix, epoch)
		writeAnswer(w, resp, err)
	})
	mux.HandleFunc("/latency", func(w http.ResponseWriter, r *http.Request) {
		if !wantMethod(w, r, http.MethodGet) {
			return
		}
		prefix, err := intParam(r, "prefix", -1)
		if err == nil && prefix < 0 {
			err = badQuery("prefix parameter is required (valid prefixes: [0,%d))", len(s.w.Topo.Prefixes))
		}
		var t float64
		if err == nil {
			t, err = floatParam(r, "t", s.w.Epochs.Epoch(s.CurrentEpoch()).Start)
		}
		if err != nil {
			writeAnswer(w, nil, err)
			return
		}
		resp, aerr := s.AnswerLatencyContext(r.Context(), prefix, t)
		writeAnswer(w, resp, aerr)
	})
	mux.HandleFunc("/whatif", func(w http.ResponseWriter, r *http.Request) {
		if !wantMethod(w, r, http.MethodPost) {
			return
		}
		var req WhatIfReq
		if err := decodeBody(w, r, &req); err != nil {
			writeAnswer(w, nil, err)
			return
		}
		resp, err := s.AnswerWhatIfContext(r.Context(), req)
		writeAnswer(w, resp, err)
	})
	mux.HandleFunc("/epoch", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			resp, err := s.AnswerEpoch(0, nil)
			writeAnswer(w, resp, err)
		case http.MethodPost:
			var req struct {
				Advance int  `json:"advance"`
				Set     *int `json:"set"`
			}
			if err := decodeBody(w, r, &req); err != nil {
				writeAnswer(w, nil, err)
				return
			}
			resp, err := s.AnswerEpoch(req.Advance, req.Set)
			writeAnswer(w, resp, err)
		default:
			w.Header().Set("Allow", "GET, POST")
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !wantMethod(w, r, http.MethodGet) {
			return
		}
		writeAnswer(w, HealthResp{Query: "healthz", Status: "ok"}, nil)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !wantMethod(w, r, http.MethodGet) {
			return
		}
		if s.draining.Load() {
			writeHealth(w, http.StatusServiceUnavailable, HealthResp{Query: "readyz", Status: "draining"})
			return
		}
		writeAnswer(w, HealthResp{Query: "readyz", Status: "ready"}, nil)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown path %q (valid queries: %s)", r.URL.Path, validEndpoints))
	})
	return s.withChaos(mux)
}

// withChaos injects the configured transport latency in front of the
// mux; library Answer* calls have no transport to delay. Probes are
// exempt: operators watching a chaotic soak still need crisp health
// answers.
func (s *Server) withChaos(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if inj := s.chaosInj.Load(); inj != nil && r.URL.Path != "/healthz" && r.URL.Path != "/readyz" {
			if d := inj.QueryDelay(); d > 0 {
				if err := chaos.Sleep(r.Context(), d); err != nil {
					return // client gone; nothing to write to
				}
			}
		}
		next.ServeHTTP(w, r)
	})
}

// decodeBody decodes a bounded, strict JSON body: at most maxBodyBytes,
// unknown fields rejected, trailing garbage rejected — all as
// ErrBadQuery so they map to 400, never 500.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return badQuery("body exceeds %d bytes", int64(maxBodyBytes))
		}
		return badQuery("body: %v", err)
	}
	if dec.More() {
		return badQuery("body: trailing data after JSON value")
	}
	return nil
}

func wantMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	return false
}

func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, badQuery("%s=%q is not an integer", name, v)
	}
	return n, nil
}

func floatParam(r *http.Request, name string, def float64) (float64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, badQuery("%s=%q is not a number", name, v)
	}
	return f, nil
}

// errStatus maps an answer error to its HTTP status. Bare context
// errors (a cancelled singleflight wait that escaped untyped) count as
// deadline hits.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadQuery):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrOverload):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeAnswer writes the Encode bytes of the answer, or the mapped
// error (see Handler's class table). Shed and unavailable responses
// carry Retry-After: the condition is transient by construction.
func writeAnswer(w http.ResponseWriter, v any, err error) {
	if err != nil {
		code := errStatus(err)
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, code, err)
		return
	}
	b, err := Encode(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func writeError(w http.ResponseWriter, code int, err error) {
	b, merr := Encode(ErrorResp{Error: err.Error()})
	if merr != nil {
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

// writeHealth writes a probe response with a non-200 status but the
// standard Encode bytes.
func writeHealth(w http.ResponseWriter, code int, v HealthResp) {
	b, err := Encode(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

// httpState is the listener half of a Server, created by Start.
type httpState struct {
	hs     *http.Server
	ln     net.Listener
	silent *silentConns
}

// silentConns tracks the connections that have not sent a byte yet.
// net/http's Shutdown counts such a connection as busy for 5 s, so a
// client that dials and sends nothing (a spare connection a client
// keeps dialed, a load balancer that pre-connects) would hold a drain
// that long. Shutdown closes them instead; a connection that has begun
// its request is left to finish it.
type silentConns struct {
	mu      sync.Mutex
	closing bool // Shutdown has begun: close a new connection at once
	conns   map[*readConn]struct{}
}

// track is the http.Server's ConnState hook.
func (sc *silentConns) track(c net.Conn, state http.ConnState) {
	rc := c.(*readConn) // every connection comes from a readListener
	sc.mu.Lock()
	defer sc.mu.Unlock()
	switch {
	case state != http.StateNew:
		delete(sc.conns, rc)
	case sc.closing:
		rc.Close()
	default:
		sc.conns[rc] = struct{}{}
	}
}

// close closes every tracked connection that has sent nothing and
// makes track close any that arrives later.
func (sc *silentConns) close() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.closing = true
	for rc := range sc.conns {
		if !rc.read.Load() {
			rc.Close()
			delete(sc.conns, rc)
		}
	}
}

// readListener wraps each accepted connection in a readConn.
type readListener struct{ net.Listener }

func (l readListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &readConn{Conn: c}, nil
}

// readConn records whether its peer has sent a byte.
type readConn struct {
	net.Conn
	read atomic.Bool
}

func (c *readConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && !c.read.Load() {
		c.read.Store(true)
	}
	return n, err
}

// CloseWrite passes net/http's half-close through to the TCP
// connection, which it uses to avoid resetting a client still sending.
func (c *readConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// Start listens on addr (e.g. "127.0.0.1:8379", ":0" for an ephemeral
// port) and serves the query surface in the background until Shutdown.
// It returns the bound address. The listener carries slowloris guards
// (ReadHeaderTimeout, IdleTimeout); per-query time belongs to
// Options.QueryTimeout, so request read/write deadlines stay off.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	silent := &silentConns{conns: make(map[*readConn]struct{})}
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		ConnState:         silent.track,
	}
	s.httpMu.Lock()
	if s.http != nil {
		s.httpMu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("serve: Start called twice (Shutdown first)")
	}
	s.http = &httpState{hs: hs, ln: ln, silent: silent}
	s.httpMu.Unlock()
	s.draining.Store(false)
	go hs.Serve(readListener{ln})
	return ln.Addr(), nil
}

// StartDrain flips /readyz to 503 so load balancers stop routing here
// while in-flight and newly arriving queries still complete — the
// grace phase in front of Shutdown. Idempotent; Start resets it.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Shutdown gracefully drains the listener started by Start: readiness
// flips to draining, no new connections are accepted, connections that
// have sent nothing are closed, in-flight requests run to completion
// until ctx expires, then the rest are cut. Safe to call without Start
// (a no-op) and at most once per Start.
func (s *Server) Shutdown(ctx context.Context) error {
	s.StartDrain()
	s.httpMu.Lock()
	st := s.http
	s.http = nil
	s.httpMu.Unlock()
	if st == nil {
		return nil
	}
	st.silent.close()
	return st.hs.Shutdown(ctx)
}
