package main

import (
	"math/rand"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// stallTarget answers every request at once, except that request number
// stallAt (counting from 0, in arrival order) holds its connection for
// stall first; status is what it answers with.
type stallTarget struct {
	n       atomic.Int64
	stallAt int64
	stall   time.Duration
	status  int
}

func (t *stallTarget) do(conn int, r *request) (int, []byte, error) {
	if t.n.Add(1)-1 == t.stallAt {
		time.Sleep(t.stall)
	}
	return t.status, []byte("ok"), nil
}

// evenSchedule is n due instants gap apart.
func evenSchedule(n int, gap time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i+1) * gap
	}
	return due
}

// An open loop must charge a stall to every request that queued behind
// it: with one connection and a 60 ms stall on request 5 of a 1 ms
// schedule, request 6 was due 1 ms into the stall, so it is sent ~59 ms
// late and its latency from the due instant is at least that; the
// backlog then drains, and the last requests are on time again.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	const stall = 60 * time.Millisecond
	tgt := &stallTarget{stallAt: 5, stall: stall, status: http.StatusOK}
	reqs := []request{{kind: kindLatency}}
	due := evenSchedule(200, time.Millisecond)
	out := runOpen(tgt, 1, reqs, due, nil)
	if len(out) != len(due) {
		t.Fatalf("%d samples for %d scheduled requests: every scheduled request is an attempt", len(out), len(due))
	}
	for i, s := range out {
		if !s.ok {
			t.Errorf("request %d failed against a target that answers 200", i)
		}
	}
	if got := out[5].lat; got < stall {
		t.Errorf("stalled request: latency %v, want at least the stall %v", got, stall)
	}
	if got := out[6].late; got < stall-5*time.Millisecond {
		t.Errorf("request behind the stall: sent %v late, want about %v", got, stall-time.Millisecond)
	}
	if got := out[6].lat; got < out[6].late {
		t.Errorf("request behind the stall: latency %v is less than its lateness %v; latency runs from the due instant", got, out[6].late)
	}
	// A generator that timed from dispatch would report ~0 here.
	behind := 0
	for _, s := range out[6:] {
		if s.lat > 10*time.Millisecond {
			behind++
		}
	}
	if behind < 20 {
		t.Errorf("%d requests carry the stall in their latency, want the whole backlog (dozens)", behind)
	}
	if last := out[len(out)-1]; last.late > 20*time.Millisecond {
		t.Errorf("last request still %v late: the backlog never drained", last.late)
	}
}

// A closed loop sends its next request only after the previous one
// returned, so the same stall costs exactly one slow sample.
func TestClosedLoopTimesFromSend(t *testing.T) {
	tgt := &stallTarget{stallAt: 5, stall: 40 * time.Millisecond, status: http.StatusOK}
	reqs := make([]request, 50)
	out, _ := runClosed(tgt, 1, reqs, 0, nil)
	if len(out) != len(reqs) {
		t.Fatalf("%d samples for a %d-request list", len(out), len(reqs))
	}
	slow := 0
	for _, s := range out {
		if s.lat >= 30*time.Millisecond {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("%d slow samples, want 1", slow)
	}
}

// Failures count against attempts: a refusal or a body the verifier
// rejects is a sample that is not ok, never a dropped one.
func TestFailuresAreCounted(t *testing.T) {
	reqs := make([]request, 20)
	refused := &stallTarget{stallAt: -1, status: http.StatusTooManyRequests}
	out := runOpen(refused, 2, reqs, evenSchedule(20, 100*time.Microsecond), nil)
	for i, s := range out {
		if s.ok || s.status != http.StatusTooManyRequests {
			t.Fatalf("sample %d of a refusing target: ok=%v status=%d", i, s.ok, s.status)
		}
	}
	fine := &stallTarget{stallAt: -1, status: http.StatusOK}
	closed, _ := runClosed(fine, 2, reqs, 0, func(*request, []byte) bool { return false })
	if len(closed) != len(reqs) {
		t.Fatalf("%d samples for %d requests", len(closed), len(reqs))
	}
	for i, s := range closed {
		if s.ok {
			t.Fatalf("sample %d: ok although the verifier rejected its body", i)
		}
	}
	if kept := keepOK(fine, 2, reqs, nil); len(kept) != len(reqs) {
		t.Errorf("keepOK kept %d of %d requests that all answer 200", len(kept), len(reqs))
	}
	if kept := keepOK(refused, 2, reqs, nil); len(kept) != 0 {
		t.Errorf("keepOK kept %d requests of a refusing target", len(kept))
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 4000, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 4000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two schedules")
	}
	if n := len(a); n < 3600 || n > 4400 {
		t.Errorf("%d arrivals in 1 s at 4000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("due instants not ascending at %d", i)
		}
	}
	if a[len(a)-1] >= time.Second {
		t.Errorf("last arrival %v is past the phase", a[len(a)-1])
	}
}
