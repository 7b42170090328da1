package main

import (
	"math"
	"sort"
)

// The four workloads, in the order every report lists them.
const (
	wlSteady   = "serve_steady"
	wlChurn    = "serve_churn"
	wlSweep    = "route_sweep"
	wlCampaign = "campaign"
)

var workloads = []string{wlSteady, wlChurn, wlSweep, wlCampaign}

// metricDef names one metric, its unit, and which direction is better.
type metricDef struct {
	name   string
	unit   string
	higher bool
}

// endToEnd is the user-visible metric set. Every workload reports every
// one of them (README.md "Metric × workload" says what each means
// where); BENCHMARK.json carries the regression bound of each, and
// TestBenchmarkJSONMatchesSpec keeps the two lists identical.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"ops_per_s", "1/s", true},
	{"repairs_per_s", "1/s", true},
	{"p50_ms", "ms", false},
	{"p99_ms", "ms", false},
	{"whatif_p50_ms", "ms", false},
	{"slo_ok_pct", "%", true},
	{"cpu_ms_per_op", "ms", false},
	{"rss_peak_mb", "MB", false},
	{"ok_pct", "%", true},
}

// experimentIDs is the campaign's cell list (cmd/beatbgp -list order);
// the campaign workload fails when the manifest disagrees, so the
// harness.cell_ms.<id> metric names stay a fixed set.
var experimentIDs = []string{
	"fig1", "fig2", "t31", "t311", "fig3", "t32", "fig4", "fig5", "t33", "t4g",
	"xpeer", "xgroom", "xwan", "xsplit", "xdiv", "xcap", "xdyn", "xfaults",
	"xavail", "xdetect", "xflap", "xhybrid", "xodin", "xsites", "xinfer",
	"xcorridor", "xqoe", "afate", "aecs", "apni",
}

// dynamicsIDs are the campaign's fault/repair studies, the cells that
// walk the epoch repair chain: the campaign's what-if side.
var dynamicsIDs = []string{"xdyn", "xfaults", "xavail", "xdetect", "xflap"}

// perLayer is the traced pass's metric set. A traced run of one
// workload measures the layers that workload enters and reports 0 for
// the rest (a layer the workload bypasses does no work there).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	us := func(names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{n, "us", false})
		}
		return out
	}
	var out []metricDef
	// serve_steady: the warm per-request path.
	out = append(out, us("serve.http_rtt_us", "serve.answer_latency_us", "serve.answer_catchment_us",
		"serve.encode_us", "serve.http_overhead_us")...)
	out = append(out,
		metricDef{"serve.allocs_per_query", "count", false},
		metricDef{"serve.bytes_per_query", "B", false},
		metricDef{"serve.unattributed_pct", "%", false})
	out = append(out, us("provider.egress_options_us", "netpath.resolve_pinned_us", "netsim.route_rtt_us",
		"cdn.phys_via_rib_us", "cdn.anycast_rib_at_hit_us")...)
	// serve_churn: the cold path.
	out = append(out, us("serve.answer_latency_cold_us", "serve.answer_whatif_us")...)
	out = append(out,
		metricDef{"serve.whatif_allocs", "count", false},
		metricDef{"serve.whatif_bytes", "B", false},
		metricDef{"serve.retained_kb_per_cold_query", "kB", false})
	out = append(out, us("cdn.anycast_rib_at_cold_us", "matbgp.start_repair_us", "matbgp.apply_us")...)
	out = append(out,
		metricDef{"matbgp.apply_allocs", "count", false},
		metricDef{"matbgp.apply_bytes", "B", false})
	out = append(out, us("matbgp.rib_us", "matbgp.compute_us")...)
	// The admission gate under contention.
	out = append(out,
		metricDef{"serve.shed_pct", "%", false},
		metricDef{"serve.shed_reply_us", "us", false},
		metricDef{"serve.admitted_p99_ms", "ms", false})
	// route_sweep: batch build.
	out = append(out,
		metricDef{"matbgp.lower_ms", "ms", false},
		metricDef{"matbgp.column_ms", "ms", false},
		metricDef{"matbgp.column_p99_ms", "ms", false},
		metricDef{"matbgp.column_allocs", "count", false},
		metricDef{"matbgp.column_bytes", "B", false},
		metricDef{"runtime.alloc_gb", "GB", false},
		metricDef{"runtime.gc_cycles", "count", false},
		metricDef{"runtime.gc_pause_ms", "ms", false})
	// route_sweep: repair.
	out = append(out, us("matbgp.repair_hit_us", "matbgp.repair_miss_us")...)
	out = append(out,
		metricDef{"matbgp.repair_allocs_per_pair", "count", false},
		metricDef{"matbgp.repair_bytes_per_pair", "B", false},
		metricDef{"matbgp.repair_affected_share", "%", false})
	// World build (setup_s of every workload that builds a world).
	for _, n := range []string{"core.build_total_ms", "core.build_topology_ms", "core.build_provider_ms",
		"core.build_cdn_ms", "core.freeze_ms"} {
		out = append(out, metricDef{n, "ms", false})
	}
	// campaign.
	for _, id := range experimentIDs {
		out = append(out, metricDef{"harness.cell_ms." + id, "ms", false})
	}
	out = append(out,
		metricDef{"harness.overhead_ms", "ms", false},
		metricDef{"par.scaling_eff", "ratio", true})
	// The driver's own generator, so a noisy slo_ok_pct can be blamed
	// on the box and not the daemon.
	out = append(out,
		metricDef{"loadgen.r1000_p99_ms", "ms", false},
		metricDef{"loadgen.r2000_p99_ms", "ms", false},
		metricDef{"loadgen.r4000_p99_ms", "ms", false},
		metricDef{"loadgen.max_ok_rate", "1/s", true},
		metricDef{"loadgen.late_p99_ms", "ms", false},
		metricDef{"loadgen.late_max_ms", "ms", false},
		metricDef{"trace.overhead_pct", "%", false})
	return out
}

// median returns the middle value (mean of the middle two), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(xs, n=4) (exclusive method), which is
// what the pipeline's spread check uses. Fewer than two values have no
// spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		f := pos - float64(j)
		return s[j-1] + f*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// tailPercentile picks the percentile a tail metric is read at: p99
// when the sample supports it, else the highest percentile that still
// has ten samples beyond it (never below the median).
func tailPercentile(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// percentile reads the q-quantile of an ascending-sorted sample by
// nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
