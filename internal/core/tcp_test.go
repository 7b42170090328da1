package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSteadyWindow(t *testing.T) {
	if w := steadyWindowSegs(0); w != maxWindowSegs {
		t.Fatalf("lossless window = %v", w)
	}
	if w := steadyWindowSegs(0.01); math.Abs(w-12.2) > 0.1 {
		t.Fatalf("1%% loss window = %v, want ~12.2", w)
	}
	if w := steadyWindowSegs(0.9); w != 2 {
		t.Fatalf("floor window = %v, want 2", w)
	}
}

func TestTransferTimeSmallObject(t *testing.T) {
	// 10 KB fits in the initial window: exactly one round.
	if ms := transferTimeMs(10_000, 50, 0); ms != 50 {
		t.Fatalf("10KB over 50ms RTT = %v, want 50", ms)
	}
}

func TestTransferTimeSlowStartRounds(t *testing.T) {
	// 100 segments at w0=10 lossless: rounds of 10,20,40,80 -> 4 rounds.
	bytes := 100 * mssBytes
	if ms := transferTimeMs(bytes, 100, 0); ms != 400 {
		t.Fatalf("100-segment transfer = %v ms, want 400", ms)
	}
}

func TestTransferScalesWithRTT(t *testing.T) {
	a := transferTimeMs(1e6, 20, 0.001)
	b := transferTimeMs(1e6, 200, 0.001)
	if b <= a {
		t.Fatal("longer RTT should slow the transfer")
	}
	if math.Abs(b/a-10) > 1e-9 {
		t.Fatalf("transfer time should scale linearly with RTT: %v vs %v", a, b)
	}
}

func TestLossSlowsBulkTransfers(t *testing.T) {
	clean := transferTimeMs(10e6, 50, 0.0001)
	lossy := transferTimeMs(10e6, 50, 0.02)
	if lossy <= clean {
		t.Fatalf("loss should hurt bulk transfers: %v vs %v", lossy, clean)
	}
}

func TestTransferProperties(t *testing.T) {
	monotoneBytes := func(kb uint16, rtt8 uint8) bool {
		rtt := float64(rtt8%200) + 1
		small := transferTimeMs(float64(kb)+1, rtt, 0.001)
		big := transferTimeMs(float64(kb)+1e6, rtt, 0.001)
		return big >= small && small > 0
	}
	if err := quick.Check(monotoneBytes, nil); err != nil {
		t.Fatal(err)
	}
	if transferTimeMs(0, 50, 0) != 0 {
		t.Fatal("zero bytes should take zero time")
	}
}

func TestSplitBeatsDirectOverLongDistance(t *testing.T) {
	// §4: splitting helps over long distances — the short client leg
	// ramps quickly and the long leg is pipelined.
	bytes := 2e6
	rtt1, rtt2 := 10.0, 140.0
	direct := fetchDirectMs(bytes, rtt1, 0.002, rtt2, 0.002)
	split := fetchSplitMs(bytes, rtt1, 0.002, rtt2, 0.002)
	if split >= direct {
		t.Fatalf("split %v should beat direct %v", split, direct)
	}
}

func TestSplitBackendQualityMatters(t *testing.T) {
	// A private-WAN backend (lower loss) should outperform a public
	// Internet backend at the same RTT.
	bytes := 10e6
	wan := fetchSplitMs(bytes, 10, 0.002, 120, 0.0002)
	pub := fetchSplitMs(bytes, 10, 0.002, 120, 0.01)
	if wan >= pub {
		t.Fatalf("WAN backend %v should beat lossy public backend %v", wan, pub)
	}
}

func TestGoodput(t *testing.T) {
	// 10 MB in 1 second = 80 Mbps.
	if g := goodputMbps(10e6, 1000); math.Abs(g-80) > 1e-9 {
		t.Fatalf("goodput = %v, want 80", g)
	}
	if goodputMbps(1, 0) != 0 {
		t.Fatal("zero time should yield zero goodput")
	}
}

func TestDirectCombinesLoss(t *testing.T) {
	// Combined loss must be >= each leg's loss: direct over two lossy
	// legs is slower than over one.
	one := fetchDirectMs(5e6, 50, 0.005, 0, 0)
	two := fetchDirectMs(5e6, 50, 0.005, 0, 0.005)
	if two <= one {
		t.Fatalf("two lossy legs %v should be slower than one %v", two, one)
	}
}
