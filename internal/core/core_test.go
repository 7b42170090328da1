package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"beatbgp/internal/netsim"
)

// smallConfig keeps integration tests fast: a reduced world and a 2-day
// trace still exercise every code path.
func smallConfig(seed uint64) Config {
	cfg := Config{Seed: seed}
	cfg.Topology.EyeballsPerRegion = 8
	cfg.Workload.Days = 2
	return cfg
}

func scenario(t testing.TB, seed uint64) *Scenario {
	t.Helper()
	s, err := NewScenario(smallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func cell(t *testing.T, r Result, table, row, col string) float64 {
	t.Helper()
	for _, tb := range r.Tables {
		if tb.Name == table {
			if v, ok := tb.Cell(row, col); ok {
				return v
			}
		}
	}
	t.Fatalf("missing cell %s/%s/%s in %s", table, row, col, r.ID)
	return 0
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "t31", "t311", "fig3", "t32", "fig4",
		"fig5", "t33", "t4g", "xpeer", "xgroom", "xwan", "xsplit", "xdiv", "xcap",
		"xdyn", "xfaults", "xavail", "xdetect", "xflap", "xhybrid", "xodin", "xsites", "xinfer", "xcorridor",
		"xqoe", "afate", "aecs", "apni"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("%d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Fatalf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := RunByID(scenario(t, 99), "nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFigure1Shape(t *testing.T) {
	s := scenario(t, 1)
	r, err := figure1(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("fig1 should have point + CI band series, got %d", len(r.Series))
	}
	// Paper shape: BGP roughly as good as the best alternate for the vast
	// majority; a small improvable tail.
	ge5 := cell(t, r, "fig1 summary", "frac_traffic_diff_ge_5ms", "value")
	if ge5 < 0 || ge5 > 0.12 {
		t.Fatalf("improvable-by-5ms traffic = %v, want small (paper: 2-4%%)", ge5)
	}
	within1 := cell(t, r, "fig1 summary", "frac_traffic_abs_diff_le_1ms", "value")
	if within1 < 0.5 {
		t.Fatalf("only %v of traffic within 1ms; BGP should roughly match alternates", within1)
	}
	// CI band must bracket the point estimate CDF at 0.
	var point, lo, hi float64
	for _, sr := range r.Series {
		switch sr.Name {
		case "median-diff":
			point = sr.YAt(0)
		case "ci-lower":
			lo = sr.YAt(0)
		case "ci-upper":
			hi = sr.YAt(0)
		}
	}
	// Lower CI values shift the CDF right: cdf_lo >= cdf_point >= cdf_hi.
	if !(lo >= point-1e-9 && point >= hi-1e-9) {
		t.Fatalf("CI band does not bracket point: lo=%v point=%v hi=%v", lo, point, hi)
	}
}

func TestFigure2Shape(t *testing.T) {
	s := scenario(t, 2)
	r, err := figure2(s)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: transits perform like peers, public like private — medians
	// near zero.
	pt := cell(t, r, "fig2 summary", "peer_minus_transit", "median_ms")
	pp := cell(t, r, "fig2 summary", "private_minus_public", "median_ms")
	if pt < -8 || pt > 8 {
		t.Fatalf("peer-transit median %v ms; should be small", pt)
	}
	if pp < -8 || pp > 8 {
		t.Fatalf("private-public median %v ms; should be small", pp)
	}
}

func TestTableS31Shape(t *testing.T) {
	s := scenario(t, 3)
	r, err := tableS31(s)
	if err != nil {
		t.Fatal(err)
	}
	w500 := cell(t, r, "s3.1 in-text", "frac_traffic_within_500km", "value")
	w2500 := cell(t, r, "s3.1 in-text", "frac_traffic_within_2500km", "value")
	if w500 < 0.4 {
		t.Fatalf("only %v of traffic within 500km of its PoP (paper: ~half)", w500)
	}
	if w2500 < w500 || w2500 < 0.8 {
		t.Fatalf("within-2500km %v inconsistent (paper: ~90%%)", w2500)
	}
	omni := cell(t, r, "s3.1 in-text", "mean_gain_omniscient_ms", "value")
	reactive := cell(t, r, "s3.1 in-text", "mean_gain_reactive_ms", "value")
	if omni < 0 {
		t.Fatalf("omniscient gain %v must be non-negative by construction", omni)
	}
	if reactive > omni+1e-9 {
		t.Fatalf("reactive controller %v cannot beat the omniscient one %v", reactive, omni)
	}
}

func TestTableS311Shape(t *testing.T) {
	s := scenario(t, 4)
	r, err := tableS311(s)
	if err != nil {
		t.Fatal(err)
	}
	degraded := cell(t, r, "s3.1.1 degrade-together analysis", "mean_frac_windows_preferred_degraded", "value")
	improvable := cell(t, r, "s3.1.1 degrade-together analysis", "mean_frac_windows_alternate_better", "value")
	if degraded <= improvable {
		t.Fatalf("degradations (%v) must be more prevalent than improvements (%v) — the paper's central finding", degraded, improvable)
	}
	persistent := cell(t, r, "s3.1.1 degrade-together analysis", "frac_median_winners_persistent_ge80pct", "value")
	if persistent < 0.5 {
		t.Fatalf("only %v of median winners persistent; paper says most winners win all the time", persistent)
	}
}

func TestFigure3Shape(t *testing.T) {
	s := scenario(t, 5)
	r, err := figure3(s)
	if err != nil {
		t.Fatal(err)
	}
	within10 := cell(t, r, "fig3 summary", "world_frac_within_10ms", "value")
	tail := cell(t, r, "fig3 summary", "world_frac_worse_by_100ms", "value")
	if within10 < 0.5 {
		t.Fatalf("anycast within 10ms for only %v globally (paper ~70%%)", within10)
	}
	if tail < 0.01 || tail > 0.25 {
		t.Fatalf("100ms tail = %v (paper ~10%%)", tail)
	}
	// The original study found anycast closest to optimal in Europe; at
	// laptop scale the US-vs-world ordering wobbles, so assert the robust
	// parts: Europe at least on par with the world, US not broken.
	europe := cell(t, r, "fig3 summary", "europe_frac_within_10ms", "value")
	if europe < within10-0.05 {
		t.Fatalf("Europe (%v) should be at least on par with the world (%v)", europe, within10)
	}
	us := cell(t, r, "fig3 summary", "us_frac_within_10ms", "value")
	if us < 0.4 {
		t.Fatalf("US within-10ms %v implausibly low", us)
	}
}

func TestTableS32Shape(t *testing.T) {
	s := scenario(t, 6)
	r, err := tableS32(s)
	if err != nil {
		t.Fatal(err)
	}
	d1 := cell(t, r, "front-end distances (km)", "nearest", "median_km")
	d2 := cell(t, r, "front-end distances (km)", "second_nearest", "median_km")
	d4 := cell(t, r, "front-end distances (km)", "fourth_nearest", "median_km")
	if !(d1 <= d2 && d2 <= d4) {
		t.Fatalf("distances must increase with rank: %v %v %v", d1, d2, d4)
	}
	if d4 > 8000 {
		t.Fatalf("4th nearest at %v km; front-end density too low", d4)
	}
}

func TestFigure4Shape(t *testing.T) {
	s := scenario(t, 7)
	r, err := figure4(s)
	if err != nil {
		t.Fatal(err)
	}
	improved := cell(t, r, "fig4 summary", "frac_improved_gt_1ms", "value")
	worse := cell(t, r, "fig4 summary", "frac_worse_gt_1ms", "value")
	if improved < 0.05 || improved > 0.6 {
		t.Fatalf("redirection improved %v of clients (paper: 27%%)", improved)
	}
	if worse <= 0 {
		t.Fatal("redirection never does worse than anycast; the paper found it does for 17%")
	}
	if improved <= worse {
		t.Fatalf("improved (%v) should exceed worse (%v)", improved, worse)
	}
}

func TestFigure5Shape(t *testing.T) {
	s := scenario(t, 8)
	r, err := figure5(s)
	if err != nil {
		t.Fatal(err)
	}
	// US near zero; India standard-better — the two anchor findings.
	us, ok := r.Tables[0].Cell("US", "median_diff_ms")
	if !ok {
		t.Fatal("no US row")
	}
	if us < -10 || us > 10 {
		t.Fatalf("US median diff %v ms, want within +/-10", us)
	}
	in, ok := r.Tables[0].Cell("IN", "median_diff_ms")
	if !ok {
		t.Skip("no Indian vantage point passed the filter for this seed")
	}
	if in >= 0 {
		t.Fatalf("India diff %v: the public Internet (Standard) must win for India", in)
	}
}

func TestTableS33Shape(t *testing.T) {
	s := scenario(t, 9)
	r, err := tableS33(s)
	if err != nil {
		t.Fatal(err)
	}
	prem := cell(t, r, "s3.3 ingress analysis", "premium_frac_ingress_within_400km", "value")
	std := cell(t, r, "s3.3 ingress analysis", "standard_frac_ingress_within_400km", "value")
	if prem <= std {
		t.Fatalf("premium near-ingress %v must exceed standard %v (paper: 80%% vs 10%%)", prem, std)
	}
}

func TestTableGoodputShape(t *testing.T) {
	s := scenario(t, 10)
	r, err := tableGoodput(s)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := r.Tables[0].Cell("premium", "median")
	q, _ := r.Tables[0].Cell("standard", "median")
	if p <= 0 || q <= 0 {
		t.Fatalf("non-positive goodput %v %v", p, q)
	}
	ratio := p / q
	if ratio < 0.5 || ratio > 2.5 {
		t.Fatalf("goodput ratio %v; paper saw little difference", ratio)
	}
}

func TestSingleWANShape(t *testing.T) {
	s := scenario(t, 11)
	r, err := singleWANStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	// The highest-carriage bucket should be closer to premium than the
	// mid bucket (monotone trend supported by the hypothesis).
	tb := r.Tables[0]
	loBucket, _ := tb.Cell("carry_frac_0.50-0.75", "median_std_minus_prem_ms")
	hiBucket, _ := tb.Cell("carry_frac_0.90-1.01", "median_std_minus_prem_ms")
	if hiBucket > loBucket+5 {
		t.Fatalf("single-WAN routes (%v ms) should not be farther from premium than fragmented ones (%v ms)", hiBucket, loBucket)
	}
}

func TestSplitTCPShape(t *testing.T) {
	s := scenario(t, 12)
	r, err := splitTCPStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	for _, row := range tb.Rows {
		direct, _ := tb.Cell(row.Label, "direct")
		splitW, _ := tb.Cell(row.Label, "split_wan_backend")
		n, _ := tb.Cell(row.Label, "n")
		if n == 0 {
			continue
		}
		if splitW >= direct {
			t.Fatalf("bucket %s: split-WAN (%v) should beat direct (%v)", row.Label, splitW, direct)
		}
	}
}

func TestAvailabilityShape(t *testing.T) {
	s := scenario(t, 13)
	r, err := routeDiversityStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	for _, row := range tb.Rows {
		pref, _ := tb.Cell(row.Label, "preferred_route_only")
		any, _ := tb.Cell(row.Label, "with_failover")
		if any < pref-1e-9 {
			t.Fatalf("%s: failover availability %v below preferred-only %v", row.Label, any, pref)
		}
		if pref < 0.9 || any > 1+1e-9 {
			t.Fatalf("%s: implausible availabilities %v %v", row.Label, pref, any)
		}
	}
	base, _ := tb.Cell("baseline_failures", "preferred_route_only")
	fragile, _ := tb.Cell("fragile_small_peers_5x", "preferred_route_only")
	if fragile > base+1e-9 {
		t.Fatalf("fragile peers cannot improve preferred-route uptime (%v vs %v)", fragile, base)
	}
}

func TestCapacityStudyShape(t *testing.T) {
	s := scenario(t, 17)
	r, err := capacityStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	detoured := cell(t, r, "edge-fabric capacity overrides", "frac_volume_detoured", "value")
	if detoured < 0 || detoured > 0.3 {
		t.Fatalf("detoured volume %v; the controller should move a small slice, not the bulk", detoured)
	}
	cost := cell(t, r, "edge-fabric capacity overrides", "detour_latency_cost_median_ms", "value")
	if cost < -5 || cost > 30 {
		t.Fatalf("detour latency cost %v ms implausible", cost)
	}
}

func TestSiteOutageShape(t *testing.T) {
	s := scenario(t, 18)
	r, err := siteOutageStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	anyDown, _ := tb.Cell("anycast_bgp_failover", "mean_downtime_min")
	dnsDown, _ := tb.Cell("dns_redirection_ttl", "mean_downtime_min")
	if anyDown <= 0 {
		t.Fatal("anycast failover cannot be instantaneous")
	}
	if anyDown >= dnsDown {
		t.Fatalf("anycast downtime %v must beat DNS-cached downtime %v — the §4 claim", anyDown, dnsDown)
	}
	infl, _ := r.Tables[1].Cell("median_inflation_ms", "value")
	if infl < 0 {
		t.Fatalf("failover to a farther site cannot reduce median latency: %v", infl)
	}
}

func TestHybridShape(t *testing.T) {
	s := scenario(t, 19)
	r, err := hybridStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	plainWorse, _ := tb.Cell("redirect_margin_0ms", "frac_worse_gt_1ms")
	hybridWorse, _ := tb.Cell("hybrid_margin_25ms", "frac_worse_gt_1ms")
	if hybridWorse > plainWorse+1e-9 {
		t.Fatalf("a 25ms margin cannot increase regressions: %v vs %v", hybridWorse, plainWorse)
	}
	plainImp, _ := tb.Cell("redirect_margin_0ms", "frac_improved_gt_1ms")
	hybridImp, _ := tb.Cell("hybrid_margin_25ms", "frac_improved_gt_1ms")
	if hybridImp > plainImp+1e-9 {
		t.Fatalf("a margin cannot increase override coverage: %v vs %v", hybridImp, plainImp)
	}
}

func TestOdinStudyShape(t *testing.T) {
	s := scenario(t, 20)
	r, err := odinStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	loSamples, _ := tb.Cell("sample_rate_0.002", "samples")
	hiSamples, _ := tb.Cell("sample_rate_0.050", "samples")
	if hiSamples <= loSamples {
		t.Fatalf("sampling budget not increasing: %v vs %v", hiSamples, loSamples)
	}
	for _, row := range tb.Rows {
		imp, _ := tb.Cell(row.Label, "frac_improved_gt_1ms")
		worse, _ := tb.Cell(row.Label, "frac_worse_gt_1ms")
		if imp < 0 || imp > 1 || worse < 0 || worse > 1 {
			t.Fatalf("%s: fractions out of range", row.Label)
		}
	}
}

func TestSiteDensityShape(t *testing.T) {
	s := scenario(t, 21)
	r, err := siteDensityStudy(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	loSites, _ := tb.Cell("scale_0.5x", "sites")
	hiSites, _ := tb.Cell("scale_2.4x", "sites")
	if hiSites <= loSites {
		t.Fatal("site count not increasing with scale")
	}
	loRTT, _ := tb.Cell("scale_0.5x", "median_anycast_ms")
	hiRTT, _ := tb.Cell("scale_2.4x", "median_anycast_ms")
	if hiRTT > loRTT+5 {
		t.Fatalf("more sites should not raise median anycast latency: %v -> %v", loRTT, hiRTT)
	}
}

func TestCorridorShape(t *testing.T) {
	s := scenario(t, 23)
	r, err := corridorStudy(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	inBefore, ok := tb.Cell("IN", "no_corridor")
	if !ok {
		t.Skip("no Indian vantage point in this world")
	}
	inAfter, _ := tb.Cell("IN", "with_corridor")
	// The corridor must move India toward the WAN (less negative /
	// more positive std-prem difference).
	if inAfter < inBefore-1e-9 {
		t.Fatalf("corridor made India worse for the WAN: %v -> %v", inBefore, inAfter)
	}
	// Trans-Atlantic countries are unaffected.
	if usBefore, ok := tb.Cell("US", "no_corridor"); ok {
		usAfter, _ := tb.Cell("US", "with_corridor")
		if usBefore != usAfter {
			t.Fatalf("corridor changed the US: %v -> %v", usBefore, usAfter)
		}
	}
}

func TestAblationECSShape(t *testing.T) {
	s := scenario(t, 15)
	r, err := ablationECS(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	ldnsImp, _ := tb.Cell("ldns_granularity_measured", "frac_improved_gt_1ms")
	oracleImp, _ := tb.Cell("oracle_ecs_noiseless", "frac_improved_gt_1ms")
	oracleWorse, _ := tb.Cell("oracle_ecs_noiseless", "frac_worse_gt_1ms")
	// Noiseless training finds at least as many wins as a sampled
	// campaign, and mispredictions stay rare. (The measured baseline can
	// be ultra-conservative at small scale, so "oracle hurts fewer" is
	// not a stable invariant; "oracle hurts almost nobody" is.)
	if oracleImp+0.02 < ldnsImp {
		t.Fatalf("oracle improved %v < measured %v", oracleImp, ldnsImp)
	}
	if oracleWorse > 0.08 {
		t.Fatalf("oracle granularity still hurt %v of clients", oracleWorse)
	}
}

func TestAblationPNIShape(t *testing.T) {
	s := scenario(t, 16)
	r, err := ablationPNI(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	managed, _ := tb.Cell("pnis_managed", "frac_improvable_ge5ms")
	equal, _ := tb.Cell("pnis_like_public", "frac_improvable_ge5ms")
	if equal < managed-1e-9 {
		t.Fatalf("unmanaged PNIs should create at least as much improvable traffic: %v vs %v", equal, managed)
	}
}

func TestCatchmentInferenceShape(t *testing.T) {
	s := scenario(t, 22)
	r, err := catchmentInference(s)
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	naive, _ := tb.Cell("nearest_site", "frac_exact")
	sim, _ := tb.Cell("per_site_simulation", "frac_exact")
	if sim < naive-0.05 {
		t.Fatalf("routing-aware predictor (%v) should not lose to geography (%v)", sim, naive)
	}
	for _, row := range tb.Rows {
		exact, _ := tb.Cell(row.Label, "frac_exact")
		if exact < 0.2 || exact > 1 {
			t.Fatalf("%s: exact fraction %v implausible", row.Label, exact)
		}
	}
}

func TestResultRender(t *testing.T) {
	s := scenario(t, 14)
	r, err := figure2(s)
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, want := range []string{"fig2", "peering-vs-transit", "note:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestScenarioDeterminism(t *testing.T) {
	r1, err := figure2(scenario(t, 21))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := figure2(scenario(t, 21))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Render() != r2.Render() {
		t.Fatal("identical seeds produced different results")
	}
}

func TestSharedFateAblationWidensTail(t *testing.T) {
	// DESIGN.md's headline ablation: without shared-fate congestion,
	// route-specific congestion dominates and dynamic TE finds more wins.
	on := scenario(t, 31)
	offCfg := smallConfig(31)
	offCfg.Net.DisableSharedFate = true
	off, err := NewScenario(offCfg)
	if err != nil {
		t.Fatal(err)
	}
	rOn, err := tableS311(on)
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := tableS311(off)
	if err != nil {
		t.Fatal(err)
	}
	degOn := cell(t, rOn, "s3.1.1 degrade-together analysis", "mean_frac_windows_preferred_degraded", "value")
	degOff := cell(t, rOff, "s3.1.1 degrade-together analysis", "mean_frac_windows_preferred_degraded", "value")
	if degOff >= degOn {
		t.Fatalf("disabling shared fate should reduce preferred-path degradation windows: %v vs %v", degOff, degOn)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative eyeballs", func(c *Config) { c.Topology.EyeballsPerRegion = -1 }},
		{"prob above one", func(c *Config) { c.Provider.PNIProb = 1.5 }},
		{"NaN impair prob", func(c *Config) { c.Net.LinkImpairedProb = math.NaN() }},
		{"negative days", func(c *Config) { c.Workload.Days = -3 }},
		{"trace past the horizon", func(c *Config) { c.Workload.Days = netsim.HorizonMinutes/(24*60) + 1 }},
		{"wan stretch below one", func(c *Config) { c.Provider.WANStretch = 0.5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(9)
			tc.mut(&cfg)
			if _, err := NewScenario(cfg); err == nil {
				t.Fatalf("NewScenario accepted invalid config (%s)", tc.name)
			}
		})
	}
}
