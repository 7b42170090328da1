package core

import (
	"errors"
	"math"

	"beatbgp/internal/stats"
)

// The QoE model maps latency to relative engagement — the paper's framing
// device ("milliseconds of delay can cause users to abandon a cat video")
// and its §4 call for "a richer understanding of how latency impacts user
// experience and user actions".
//
// It is the standard industry rule-of-thumb family (the paper's ref [17],
// and the Amazon/Google numbers behind ref [19]): engagement decays
// roughly exponentially in page latency, with sensitivity in the region
// of a percent of conversions per hundred milliseconds. Absolute
// calibration is not the point; the model lets xqoe state results in
// sessions and engagement rather than milliseconds.
const (
	// qoeSensitivityPerMs is the relative engagement lost per millisecond
	// of added latency, in the small-delta regime: the classic −1%/100ms.
	qoeSensitivityPerMs = 1e-4
	// sessionsPerWeightPerDay converts a prefix's traffic weight into
	// HTTP sessions per day, scaling simulator weights to the paper's
	// "hundreds of trillions of sessions over ten days" universe.
	sessionsPerWeightPerDay = 1e10
)

// engagement returns the relative engagement (1 = instantaneous) at the
// given page latency: exp(-sensitivity * ms), the small-delta-consistent
// form that stays positive for tail latencies.
func engagement(latencyMs float64) float64 {
	if latencyMs < 0 {
		latencyMs = 0
	}
	return math.Exp(-qoeSensitivityPerMs * latencyMs)
}

// engagementDelta returns the relative engagement change from reducing
// latency by deltaMs at a baseline (positive = engagement gained).
func engagementDelta(baselineMs, deltaMs float64) float64 {
	return engagement(baselineMs-deltaMs) - engagement(baselineMs)
}

// sessionsPerDay converts a traffic weight into sessions per day.
func sessionsPerDay(weight float64) float64 {
	return weight * sessionsPerWeightPerDay
}

// qoeStudy puts the paper's §4 business framing in numbers: the 2-4% of
// traffic that performance-aware egress could improve by ≥5 ms "represent
// hundreds of billions of HTTP sessions" — is that worth a routing
// control system? The study converts fig1's per-pair improvements into
// sessions/day and engagement terms under the rule-of-thumb QoE model.
func qoeStudy(s *Scenario) (Result, error) {
	pairs, err := s.pairStatsAll()
	if err != nil {
		return Result{}, err
	}
	var totalSessions, improvableSessions, engagementGain float64
	var totalWeight float64
	var baseline stats.Dist
	for _, ps := range pairs {
		w := ps.trace.Prefix.Weight
		totalWeight += w
		sessions := sessionsPerDay(w)
		totalSessions += sessions
		// Baseline latency of the preferred route (median across windows).
		var pref stats.Dist
		for _, win := range ps.trace.Windows {
			pref.Add(win.MedianMinRTTMs[0], 1)
		}
		base := pref.Median()
		baseline.Add(base, w)
		if ps.pointDiff >= 5 {
			improvableSessions += sessions
			gain := engagementDelta(base, ps.pointDiff)
			engagementGain += gain * sessions
		}
	}
	if totalSessions == 0 {
		return Result{}, errNoPairs
	}
	tb := stats.Table{Name: "latency improvements in user terms", Columns: []string{"value"}}
	tb.AddRow("sessions_per_day_total", totalSessions)
	tb.AddRow("sessions_per_day_improvable_ge5ms", improvableSessions)
	tb.AddRow("frac_sessions_improvable", improvableSessions/totalSessions)
	tb.AddRow("median_baseline_latency_ms", baseline.Median())
	tb.AddRow("engagement_gain_sessions_per_day", engagementGain)
	tb.AddRow("engagement_gain_per_million_sessions", engagementGain/totalSessions*1e6)
	res := Result{ID: "xqoe", Title: "The business case: improvable latency in session terms"}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"under the 1%-per-100ms rule of thumb, the improvable slice is billions of sessions a day but a sub-0.1% aggregate engagement delta — why the paper calls building a performance-aware system 'a business (and not technical) assessment'",
		"the QoE model is a rule-of-thumb (paper refs [17], [19]); treat the absolute session counts as framing, not calibration")
	return res, nil
}

var errNoPairs = errors.New("core: no edge-fabric pairs to analyze")
