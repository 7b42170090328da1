package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// The traced pass records spans from outside the program: the driver
// wraps each call it makes into a layer's public functions. Spans stay
// in memory and are written once, when the pass ends. Spans inside the
// program are a later change; until then a layer's cost on the real
// request path is read from a replay of its calls beside the real call
// (layers.go), and the difference is reported as unattributed.

// span is one timed call. Parent is the index of the span that caused
// it (-1 for a root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer collects spans on one goroutine. A nil tracer records nothing,
// so the same loop runs traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, to end it and to parent its
// children.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// call times f as a span.
func (t *tracer) call(name string, parent, req int, f func()) {
	i := t.begin(name, parent, req)
	f()
	t.end(i)
}

// spanStats is what the spans of one name add up to, request by
// request: the total time under that name and its self time (duration
// minus the part its child spans cover), in microseconds.
type spanStats struct {
	total, self map[int]float64 // by request id
	calls       int
}

// byName folds the spans into per-name, per-request totals. A request
// that calls a layer several times (one ResolvePinned per egress
// option) counts once, with the sum: that is the layer's share of the
// request, which is what reconciles against the request's own span.
func (t *tracer) byName() map[string]*spanStats {
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanStats{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{total: map[int]float64{}, self: map[int]float64{}}
			out[s.Name] = st
		}
		st.calls++
		st.total[s.Req] += float64(s.End-s.Start) / 1e3
		st.self[s.Req] += float64(s.End-s.Start-childSum[i]) / 1e3
	}
	return out
}

// values lists a per-request table's values (order does not matter to
// the medians taken of them).
func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// traceFile is what a traced pass leaves behind.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Counts   map[string]float64 `json:"counts"` // the pass's layer metrics, by name
	Spans    []span             `json:"spans"`
}

// tracePath is where the traced pass of a workload writes its spans.
func tracePath(root, workload string) string {
	return filepath.Join(outDir(root), "trace."+workload+".json")
}

func writeTrace(root string, f traceFile) (string, error) {
	path := tracePath(root, f.Workload)
	js, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(js, '\n'), 0o644)
}
