package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"
)

// measure is one reported metric value and what stands behind it.
type measure struct {
	value  float64
	n      int     // samples the value summarises
	q1, q3 float64 // quartiles over repeats, when the value is a median of repeats
	note   string  // e.g. the percentile a tail metric was read at
}

// report is the outcome of one run (timed or traced) of one workload.
type report struct {
	workload  string
	attempted int
	failed    int
	m         map[string]measure
	notes     []string
}

func newReport(workload string) *report {
	return &report{workload: workload, m: map[string]measure{}}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds n attempts of which bad failed.
func (r *report) count(n, bad int) {
	r.attempted += n
	r.failed += bad
}

// check records one output check; a failed check fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	r.count(1, 0)
	if !ok {
		r.failed++
		r.notef("CHECK FAILED: "+format, args...)
	}
}

// set records a single-sample value.
func (r *report) set(name string, v float64, n int, note string) {
	r.m[name] = measure{value: v, n: n, q1: v, q3: v, note: note}
}

// overRepeats records the median of one value per repeat; note says
// what the value is when the metric's name does not.
func (r *report) overRepeats(name string, xs []float64, note string) {
	if note == "" {
		note = "median of repeats"
	}
	q1, q3 := quartiles(xs)
	r.m[name] = measure{value: median(xs), n: len(xs), q1: q1, q3: q3, note: note}
}

// values returns every recorded metric's value by name.
func (r *report) values() map[string]float64 {
	out := make(map[string]float64, len(r.m))
	for name, m := range r.m {
		out[name] = m.value
	}
	return out
}

// okPct is the share of attempts that did not fail.
func (r *report) okPct() float64 {
	if r.attempted == 0 {
		return 0
	}
	return 100 * float64(r.attempted-r.failed) / float64(r.attempted)
}

// print writes the human-readable table: every metric of defs by name,
// with unit, sample count and spread.
func (r *report) print(w io.Writer, defs []metricDef) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	for _, d := range defs {
		m, ok := r.m[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-5s n=%-7d", d.name, m.value, d.unit, m.n)
		if m.q1 != m.q3 {
			fmt.Fprintf(w, " q1=%.4f q3=%.4f", m.q1, m.q3)
		}
		if m.note != "" {
			fmt.Fprintf(w, " (%s)", m.note)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", r.attempted, r.failed)
}

// resultLine is the machine-readable last line of a single-workload run.
func (r *report) resultLine(defs []metricDef) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]val{}}
	for _, d := range defs {
		out.Metrics[d.name] = val{Value: r.m[d.name].value, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// latencyStats reads the median and the supported tail of a latency
// sample, in milliseconds.
func latencyStats(lat []time.Duration) (p50, tail, q float64) {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	q = tailPercentile(len(ms))
	return percentile(ms, 0.5), percentile(ms, q), q
}

func tailNote(q float64) string { return fmt.Sprintf("p%.4g", q*100) }

// subRand derives an independent stream for one purpose from the run
// seed, so adding a draw in one place never shifts another's inputs.
func subRand(seed uint64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)*1_000_003 + purpose))
}

// budget splits a run's measuring time: repeats fixes the pass count
// when positive, otherwise passes run until seconds are used up.
type budget struct {
	seconds float64
	repeats int
}

// more reports whether another pass fits: with a fixed count, until it
// is reached; otherwise while half of the last pass still fits in the
// remaining time (so a run neither stops far short nor overshoots by a
// whole pass).
func (b budget) more(done int, elapsed, lastPass time.Duration) bool {
	if b.repeats > 0 {
		return done < b.repeats
	}
	if done == 0 {
		return true
	}
	return elapsed.Seconds()+lastPass.Seconds()/2 <= b.seconds
}
