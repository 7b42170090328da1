package core

import "testing"

func TestFaultStudyShape(t *testing.T) {
	s := scenario(t, 24)
	r, err := faultStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	// The injected schedule must actually hit the measured routes.
	affected := cell(t, r, "blackhole minutes per outage per affected client-route",
		"bgp_convergence", "frac_volume_affected")
	if affected <= 0 {
		t.Fatal("injected faults did not take down any measured route")
	}
	bgpMean := cell(t, r, "blackhole minutes per outage per affected client-route",
		"bgp_convergence", "mean_downtime_min")
	efMean := cell(t, r, "blackhole minutes per outage per affected client-route",
		"edge_fabric_override", "mean_downtime_min")
	if bgpMean <= 0 {
		t.Fatal("BGP reconvergence cannot be instantaneous")
	}
	if efMean > bgpMean+1e-9 {
		t.Fatalf("the override (%v min) cannot be slower than convergence (%v min)", efMean, bgpMean)
	}
	degraded := cell(t, r, "degradation correlation under injected faults",
		"frac_volume_pref_degraded", "value")
	corr := cell(t, r, "degradation correlation under injected faults",
		"frac_degraded_where_best_alt_degraded_too", "value")
	if degraded <= 0 {
		t.Fatal("injected storms degraded nothing")
	}
	if corr < 0 || corr > 1 {
		t.Fatalf("correlation fraction %v out of range", corr)
	}
	shifted := cell(t, r, "capacity spillover during outages",
		"frac_volume_shifted_off_preferred", "value")
	if shifted < 0 || shifted > 1 {
		t.Fatalf("shifted volume fraction %v out of range", shifted)
	}
}

func TestAnycastFaultAvailabilityShape(t *testing.T) {
	s := scenario(t, 25)
	r, err := anycastFaultAvailability(s)
	if err != nil {
		t.Fatal(err)
	}
	tbl := "fault-driven downtime per affected client (minutes)"
	anyAff := cell(t, r, tbl, "anycast_unplanned", "frac_clients_affected")
	dnsAff := cell(t, r, tbl, "dns_unplanned", "frac_clients_affected")
	if anyAff <= 0 && dnsAff <= 0 {
		t.Fatal("injected site/cable failures affected nobody")
	}
	anyDown := cell(t, r, tbl, "anycast_unplanned", "mean_downtime_min")
	dnsDown := cell(t, r, tbl, "dns_unplanned", "mean_downtime_min")
	if anyAff > 0 && anyDown <= 0 {
		t.Fatal("anycast failover cannot be instantaneous for unplanned faults")
	}
	if anyAff > 0 && dnsAff > 0 && anyDown >= dnsDown {
		t.Fatalf("anycast downtime %v must beat DNS downtime %v — the §4 claim", anyDown, dnsDown)
	}
	// Planned events are drained/repointed ahead of time: zero downtime.
	if v := cell(t, r, tbl, "anycast_planned_drain", "mean_downtime_min"); v != 0 {
		t.Fatalf("planned drain downtime %v, want 0", v)
	}
	if v := cell(t, r, tbl, "dns_planned_repoint", "mean_downtime_min"); v != 0 {
		t.Fatalf("planned repoint downtime %v, want 0", v)
	}
}

// TestFaultDeterminism is the regression test for the seed contract: two
// independently built scenarios with the same seed render byte-identical
// output for fig1 and the fault-injection study.
func TestFaultDeterminism(t *testing.T) {
	for _, id := range []string{"fig1", "xfaults"} {
		r1, err := RunByID(scenario(t, 26), id)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := RunByID(scenario(t, 26), id)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Render() != r2.Render() {
			t.Fatalf("%s: identical seeds produced different renders", id)
		}
	}
}
