package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngagementBasics(t *testing.T) {
	if engagement(0) != 1 {
		t.Fatal("zero latency must give full engagement")
	}
	// ~1% per 100 ms in the small-delta regime.
	drop := 1 - engagement(100)
	if drop < 0.008 || drop > 0.012 {
		t.Fatalf("100ms engagement drop = %v, want ~1%%", drop)
	}
	if engagement(-5) != 1 {
		t.Fatal("negative latency should clamp")
	}
}

func TestEngagementMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		ex, ey := engagement(x), engagement(y)
		return ex >= ey && ey > 0 && ex <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEngagementDelta(t *testing.T) {
	// Saving 10ms at a 50ms baseline gains engagement.
	if d := engagementDelta(50, 10); d <= 0 {
		t.Fatalf("saving latency should gain engagement, got %v", d)
	}
	// Saving nothing gains nothing.
	if d := engagementDelta(50, 0); d != 0 {
		t.Fatalf("no saving should gain nothing, got %v", d)
	}
	// Diminishing returns: the same 10ms saving is worth slightly more at
	// a higher baseline under the exponential form? No — worth *less*,
	// since engagement is already lower. Verify the ordering.
	if engagementDelta(300, 10) >= engagementDelta(50, 10) {
		t.Fatal("the exponential form should discount savings at high baselines")
	}
}

func TestSessions(t *testing.T) {
	if s := sessionsPerDay(3); math.Abs(s-3e10) > 1 {
		t.Fatalf("sessions = %v", s)
	}
}
