package core

import "math"

// An analytic TCP latency and throughput model for the paper's §4
// discussions (t4g and xsplit): goodput of bulk downloads over the two
// cloud tiers (the 10 MB footnote) and the latency benefit of split TCP
// connections with a private-WAN versus public-Internet backend.
//
// The model is round-based slow start capped by the Mathis steady-state
// window (W = C/sqrt(p) segments), which is the standard back-of-envelope
// for transfer-time estimation. It deliberately ignores receive-window
// limits and timeouts: comparisons between schemes over the same
// substrate are what matter.

// TCP model constants.
const (
	mssBytes     = 1460.0 // sender maximum segment size
	initCwndSegs = 10.0   // initial congestion window (RFC 6928)
	mathisC      = 1.22   // Mathis et al. constant for loss-limited windows
	// maxWindowSegs caps the congestion window (a generous receive
	// window / buffer limit).
	maxWindowSegs = 4096.0
)

// steadyWindowSegs returns the loss-limited congestion window in segments
// for the given loss probability.
func steadyWindowSegs(loss float64) float64 {
	if loss <= 0 {
		return maxWindowSegs
	}
	w := mathisC / math.Sqrt(loss)
	if w > maxWindowSegs {
		w = maxWindowSegs
	}
	if w < 2 {
		w = 2
	}
	return w
}

// transferTimeMs returns the time to deliver the payload once the
// connection exists: slow-start doubling from the initial window up to
// the loss-limited window, one round per RTT.
func transferTimeMs(bytes, rttMs, loss float64) float64 {
	if bytes <= 0 {
		return 0
	}
	if rttMs <= 0 {
		return 0
	}
	segs := math.Ceil(bytes / mssBytes)
	wMax := steadyWindowSegs(loss)
	w := initCwndSegs
	if w > wMax {
		w = wMax
	}
	rounds := 0.0
	sent := 0.0
	for sent < segs {
		rounds++
		sent += w
		w *= 2
		if w > wMax {
			w = wMax
		}
	}
	return rounds * rttMs
}

// fetchDirectMs returns the total time to fetch a payload over a single
// end-to-end connection spanning two legs in series (e.g. client to edge
// to origin): one combined-RTT handshake plus the transfer at the
// combined RTT and combined loss.
func fetchDirectMs(bytes, rtt1Ms, loss1, rtt2Ms, loss2 float64) float64 {
	rtt := rtt1Ms + rtt2Ms
	loss := 1 - (1-loss1)*(1-loss2)
	return rtt + transferTimeMs(bytes, rtt, loss)
}

// fetchSplitMs returns the total fetch time through a split-TCP proxy at
// the leg boundary with warm backend connections: the client handshakes
// with the proxy (rtt1), the first byte must still cross the backend once
// (rtt2/2 + rtt1/2 is folded into the legs' transfers), and the two legs
// ramp their congestion windows independently, so the slower leg bounds
// the pipeline.
func fetchSplitMs(bytes, rtt1Ms, loss1, rtt2Ms, loss2 float64) float64 {
	t1 := transferTimeMs(bytes, rtt1Ms, loss1)
	t2 := transferTimeMs(bytes, rtt2Ms, loss2)
	return rtt1Ms + rtt2Ms/2 + math.Max(t1, t2)
}

// goodputMbps converts a payload size and completion time to megabits per
// second. Returns 0 for non-positive times.
func goodputMbps(bytes, timeMs float64) float64 {
	if timeMs <= 0 {
		return 0
	}
	return bytes * 8 / 1e6 / (timeMs / 1e3)
}
