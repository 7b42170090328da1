package core

import (
	"math"
	"testing"
)

// TestDetectionStudyShape checks the detection-sensitivity sweep's
// physics: measured detection latency must track each setting's
// configured mean, blackhole downtime must shrink monotonically as
// detection gets faster, and — the headline claim — enabling BFD must
// strictly reduce unavailability relative to the default hold timer.
func TestDetectionStudyShape(t *testing.T) {
	s := scenario(t, 24)
	r, err := detectionStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	tbl := "blackhole minutes by detection setting"
	names := []string{"hold_90s", "hold_36s_default", "hold_9s", "bfd_300ms_x3", "bfd_50ms_x3"}
	settings := detectionSettings(s.Cfg.Session)
	var down, detect []float64
	for i, n := range names {
		if settings[i].name != n {
			t.Fatalf("setting %d = %s, want %s", i, settings[i].name, n)
		}
		down = append(down, cell(t, r, tbl, n, "mean_downtime_min"))
		detect = append(detect, cell(t, r, tbl, n, "mean_detect_min"))
		if fu := cell(t, r, tbl, n, "frac_undetected"); fu < 0 || fu > 1 {
			t.Fatalf("%s: frac_undetected %v out of range", n, fu)
		}
		// Measured mean detection latency within the keepalive/BFD phase
		// tolerance of the configured mean (half a keepalive interval).
		want := settings[i].cfg.MeanDetectSec() / 60
		tol := settings[i].cfg.KeepaliveSec / 2 / 60
		if settings[i].cfg.BFD {
			tol = float64(settings[i].cfg.BFDMultiplier) * settings[i].cfg.BFDIntervalMs / 1000 / 60
		}
		if math.Abs(detect[i]-want) > tol+1e-9 {
			t.Errorf("%s: mean detect %v min, want %v ± %v", n, detect[i], want, tol)
		}
	}
	for i := 1; i < len(names); i++ {
		if detect[i] >= detect[i-1] {
			t.Errorf("detection latency not monotone: %s %v >= %s %v",
				names[i], detect[i], names[i-1], detect[i-1])
		}
	}
	// The acceptance claim: BFD strictly reduces unavailability vs the
	// default hold timer, and a slower hold timer strictly increases it.
	if down[3] >= down[1] {
		t.Errorf("BFD did not strictly reduce downtime: bfd=%v vs default=%v", down[3], down[1])
	}
	if down[0] <= down[1] {
		t.Errorf("a 90s hold timer should cost more than the default: %v vs %v", down[0], down[1])
	}
}

// TestFlapStormShape checks the damping story: the storm's physical
// downtime is identical across variants, but with damping on the links
// are unusable for a strict multiple of it — mostly suppression while
// physically healthy — and turning damping off removes that entirely.
func TestFlapStormShape(t *testing.T) {
	s := scenario(t, 24)
	r, err := flapStormStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	tbl := "flap storm on the busiest egress links"
	flapsOn := cell(t, r, tbl, "damping_on", "flaps")
	flapsOff := cell(t, r, tbl, "damping_off", "flaps")
	if flapsOn <= 0 || flapsOn != flapsOff {
		t.Fatalf("flap counts: on=%v off=%v, want equal and positive", flapsOn, flapsOff)
	}
	physOn := cell(t, r, tbl, "damping_on", "phys_down_min")
	physOff := cell(t, r, tbl, "damping_off", "phys_down_min")
	if physOn <= 0 || physOn != physOff {
		t.Fatalf("physical downtime: on=%v off=%v, want equal and positive", physOn, physOff)
	}
	supOn := cell(t, r, tbl, "damping_on", "suppressed_while_up_min")
	supOff := cell(t, r, tbl, "damping_off", "suppressed_while_up_min")
	if supOn <= 0 {
		t.Errorf("the storm must cross the suppress threshold: suppressed_while_up=%v", supOn)
	}
	if supOff != 0 {
		t.Errorf("damping off cannot suppress: suppressed_while_up=%v", supOff)
	}
	unOn := cell(t, r, tbl, "damping_on", "unusable_min")
	unOff := cell(t, r, tbl, "damping_off", "unusable_min")
	if unOn <= unOff {
		t.Errorf("damping must amplify unusable time: on=%v off=%v", unOn, unOff)
	}
	if unOn <= physOn {
		t.Errorf("emergent unreachability must exceed physical downtime: unusable=%v phys=%v", unOn, physOn)
	}
	if amp := cell(t, r, tbl, "damping_on", "amplification"); amp <= 1 {
		t.Errorf("amplification %v, want > 1", amp)
	}
	if n := cell(t, r, "storm scope", "storm_links", "value"); n <= 0 || n > flapStormLinks {
		t.Fatalf("storm_links %v out of range", n)
	}
}

// TestSessionDifferentialMatchesClosedForm is the differential-testing
// gate from DESIGN.md §12: on the xfaults schedule with default timers,
// the session layer's emergent blackhole accounting must track the
// closed-form bgp.ConvergenceMinutes reference within the documented
// tolerance — half a keepalive interval (0.1 min) on per-event detection
// latency, and a quarter minute on the volume-weighted mean blackhole.
func TestSessionDifferentialMatchesClosedForm(t *testing.T) {
	s := scenario(t, 24)
	r, err := faultStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	const detectTol = 0.101 // KeepaliveSec/2 in minutes, plus float slack
	diff := "session layer vs closed-form reference"
	meanLat := cell(t, r, diff, "mean_detect_latency_min", "value")
	if math.Abs(meanLat-s.Cfg.Convergence.BaseMin) > detectTol {
		t.Errorf("mean detect latency %v min, want %v ± %v (the calibrated base term)",
			meanLat, s.Cfg.Convergence.BaseMin, detectTol)
	}
	if d := cell(t, r, diff, "mean_abs_base_delta_min", "value"); d > detectTol {
		t.Errorf("mean |detect − base| = %v min, want ≤ %v", d, detectTol)
	}
	if fu := cell(t, r, diff, "frac_event_links_undetected", "value"); fu > 0.05 {
		t.Errorf("frac undetected %v, want ≤ 0.05 — default timers must see the injected schedule", fu)
	}
	bh := "blackhole minutes per outage per affected client-route"
	closed := cell(t, r, bh, "bgp_convergence", "mean_downtime_min")
	emergent := cell(t, r, bh, "bgp_session_timers", "mean_downtime_min")
	if closed <= 0 || emergent <= 0 {
		t.Fatalf("blackhole means must be positive: closed=%v emergent=%v", closed, emergent)
	}
	if math.Abs(emergent-closed) > 0.25 {
		t.Errorf("emergent blackhole %v min vs closed form %v min: |Δ| > 0.25 tolerance", emergent, closed)
	}
}

// TestSessionStudyDeterminism: same seed, two worlds, byte-identical
// renders for both session experiments (the world-build analogue of the
// worker-count sweep in the facade tests).
func TestSessionStudyDeterminism(t *testing.T) {
	s1, s2 := scenario(t, 26), scenario(t, 26)
	for _, id := range []string{"xdetect", "xflap"} {
		r1, err := RunByID(s1, id)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := RunByID(s2, id)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Render() != r2.Render() {
			t.Fatalf("%s: identical seeds produced different renders", id)
		}
	}
}

// TestWorldKeyTracksDynamics: the session and convergence models enter
// the world key (they change what experiments compute), but equal
// effective configs — zero vs explicit defaults — hash equal.
func TestWorldKeyTracksDynamics(t *testing.T) {
	base := smallConfig(42)
	k1, err := WorldKey(base)
	if err != nil {
		t.Fatal(err)
	}
	hold := base
	hold.Session.HoldSec = 90
	if kh, _ := WorldKey(hold); kh == k1 {
		t.Error("changing the hold timer did not change the world key")
	}
	bfd := base
	bfd.Session.BFD = true
	if kb, _ := WorldKey(bfd); kb == k1 {
		t.Error("enabling BFD did not change the world key")
	}
	conv := base
	conv.Convergence.BaseMin = 1.5
	if kc, _ := WorldKey(conv); kc == k1 {
		t.Error("changing the convergence base term did not change the world key")
	}
	// Explicitly spelling out the defaults is the same effective config.
	expl := base
	expl.Session = base.Session.ApplyDefaults()
	expl.Convergence = base.Convergence.ApplyDefaults()
	if ke, _ := WorldKey(expl); ke != k1 {
		t.Error("explicit defaults changed the world key; normalization is broken")
	}
}
