// Package core is the paper's contribution as code: the three studies of
// §3 (performance-aware egress at a PoP, anycast vs DNS redirection, and
// private WAN vs public Internet), the in-text statistics around them,
// and the open-question experiments of §3.1.3, §3.2.2, §3.3.2 and §4.
// Every experiment emits stats.Series/stats.Table values that regenerate
// the corresponding figure or table of the paper on the simulated
// substrate.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"beatbgp/internal/bgp"
	"beatbgp/internal/cdn"
	"beatbgp/internal/dnsmap"
	"beatbgp/internal/netpath"
	"beatbgp/internal/netsim"
	"beatbgp/internal/par"
	"beatbgp/internal/provider"
	"beatbgp/internal/session"
	"beatbgp/internal/stats"
	"beatbgp/internal/topology"
	"beatbgp/internal/workload"
)

// Config assembles a complete scenario. The zero value (with a seed) is a
// sensible laptop-scale default.
type Config struct {
	Seed     uint64
	Topology topology.GenConfig
	Provider provider.Config
	CDN      cdn.Config
	DNS      dnsmap.Config
	Net      netsim.Config
	Workload workload.Config

	// Convergence tunes the closed-form reference model for BGP
	// reconvergence (base + per-hop minutes). The zero value selects the
	// classic Labovitz-calibrated constants.
	Convergence bgp.ConvergenceModel
	// Session parameterizes the event-driven BGP session layer
	// (internal/session): hold/keepalive timers, MRAI, flap damping, and
	// optional BFD fast detection. The zero value selects defaults
	// calibrated to the Convergence reference model.
	Session session.Config

	// Workers bounds the parallel runtime's pool for the heavy sweeps
	// (route propagation, trace replay, measurement campaigns). Zero or
	// negative means GOMAXPROCS. Results are bit-identical at any worker
	// count — see internal/par and DESIGN.md "Parallel runtime".
	Workers int
}

func (c *Config) setDefaults() {
	if c.Topology.Seed == 0 {
		c.Topology.Seed = c.Seed
	}
	if c.Provider.Seed == 0 {
		c.Provider.Seed = c.Seed + 1
	}
	if c.CDN.Seed == 0 {
		c.CDN.Seed = c.Seed + 2
	}
	if c.DNS.Seed == 0 {
		c.DNS.Seed = c.Seed + 3
	}
	if c.Net.Seed == 0 {
		c.Net.Seed = c.Seed + 4
	}
	if c.Workload.Seed == 0 {
		c.Workload.Seed = c.Seed + 5
	}
	// Normalize the dynamics models so equal effective configs hash to
	// equal world keys regardless of which zero fields the caller left.
	c.Convergence = c.Convergence.ApplyDefaults()
	c.Session = c.Session.ApplyDefaults()
}

// Validate checks every sub-configuration, rejecting nonsensical
// parameters (negative counts and rates, NaN, probabilities above 1, a
// trace longer than the netsim horizon) instead of silently building a
// broken world. Zero values still mean
// "use the default". NewScenario calls this; standalone callers can use
// it to fail fast before an expensive build.
func (c *Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Provider.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.CDN.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.DNS.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Net.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Workload.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// netsim draws incidents and link failures only inside its horizon,
	// so a longer trace would end in silently quiet days. Compare the
	// effective value: zero days selects the default.
	const horizonDays = netsim.HorizonMinutes / (24 * 60)
	if days := workload.NewGenerator(nil, nil, c.Workload).Config().Days; days > horizonDays {
		return fmt.Errorf("core: Workload.Days = %d exceeds the netsim horizon of %d days", days, horizonDays)
	}
	if err := c.Convergence.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Session.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Scenario is a fully built simulation world shared by the experiments.
// Scenarios come from NewScenario (every stage built fresh) or from
// Derive on an existing scenario (unchanged stages shared by pointer —
// see build.go for the stage graph and the sharing rules).
type Scenario struct {
	Cfg    Config
	Topo   *topology.Topo
	Prov   *provider.Provider
	CDN    *cdn.CDN
	DNS    *dnsmap.Mapping
	Sim    *netsim.Sim
	Oracle *bgp.Oracle
	Res    *netpath.Resolver
	Gen    *workload.Generator

	// Routes is the route-computation engine (matbgp), lowered from the
	// finished topology by the CDN stage. The Oracle memoizes through it,
	// and experiments that need ad-hoc RIBs (groomed announcements, failed
	// links) call it directly instead of the package-level bgp helpers.
	Routes bgp.Computer

	// userCfg is the caller's config before setDefaults, kept so Derive
	// can re-run seed derivation centrally when Config.Seed changes.
	userCfg Config
	keys    buildKeys
	report  BuildReport

	// Frozen per-stage topology snapshots: the world as generated
	// (baseTopo) and after the provider build (provTopo). Downstream
	// stages clone these before extending, which is what lets Derive
	// rebuild e.g. only the CDN without replaying the provider stage.
	baseTopo *topology.Topo
	provTopo *topology.Topo

	// The lazy caches are built under their own mutexes so concurrent
	// experiments (a campaign's cells) block only on the cache they share.
	tracesMu sync.Mutex
	traces   []workload.Trace // lazily built Edge-Fabric trace (see efTraces)
	pairsMu  sync.Mutex
	pairs    []pairStats // lazily aggregated traces (see pairStatsAll)
	tierMu   sync.Mutex
	tier     *tierState // lazily built cloud-tier state (see tiers)
	epochsMu sync.Mutex
	epochs   *faultEpochState // lazily built fault epoch pipeline (see faultEpochs)
}

// workers resolves the effective worker count for parallel sweeps.
func (s *Scenario) workers() int { return par.Workers(s.Cfg.Workers) }

// NewScenario builds the world: topology, content provider (with WAN and
// peering), anycast CDN sites, resolver population, and the congestion
// simulator. It runs the full staged build graph (see build.go) with
// nothing to reuse; use Scenario.Derive to build variations cheaply.
func NewScenario(cfg Config) (*Scenario, error) {
	return NewScenarioContext(context.Background(), cfg)
}

// NewScenarioContext is NewScenario honoring context cancellation between
// build stages.
func NewScenarioContext(ctx context.Context, cfg Config) (*Scenario, error) {
	user := cfg
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return build(ctx, cfg, user, nil)
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Series []stats.Series
	Tables []stats.Table
	Notes  []string
}

// Render formats the result as text.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, t := range r.Tables {
		b.WriteString(t.Render())
	}
	for _, s := range r.Series {
		b.WriteString(s.Render())
	}
	return b.String()
}

// Experiment is a runnable reproduction of one paper artifact. Run
// receives a context so studies that build sub-scenarios (the sweep
// studies, via Scenario.Derive) stop at the per-experiment
// deadline instead of finishing the rebuild loop.
type Experiment struct {
	ID    string
	Title string
	Run   func(context.Context, *Scenario) (Result, error)
}

// noCtx adapts an experiment that never blocks on sub-scenario builds:
// its inner sweeps already observe cancellation through the parallel
// runtime, so the context needs no explicit threading.
func noCtx(run func(*Scenario) (Result, error)) func(context.Context, *Scenario) (Result, error) {
	return func(_ context.Context, s *Scenario) (Result, error) { return run(s) }
}

// Experiments returns the full registry in the order of the paper.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "CDF of median MinRTT difference, BGP minus best alternate (Figure 1)", noCtx(figure1)},
		{"fig2", "Peer vs transit and private vs public peering differences (Figure 2)", noCtx(figure2)},
		{"t31", "§3.1 in-text: improvable traffic share and client-PoP distances", noCtx(tableS31)},
		{"t311", "§3.1.1: degradations vs improvement windows; persistence of winners", noCtx(tableS311)},
		{"fig3", "CCDF of anycast minus best unicast per request (Figure 3)", noCtx(figure3)},
		{"t32", "§2.3.2 in-text: distance to nth nearest front-end", noCtx(tableS32)},
		{"fig4", "CDF of improvement from LDNS-grade DNS redirection (Figure 4)", noCtx(figure4)},
		{"fig5", "Per-country median Standard minus Premium latency (Figure 5)", noCtx(figure5)},
		{"t33", "§3.3 in-text: ingress distance by tier; India case study", noCtx(tableS33)},
		{"t4g", "§4 footnote: 10 MB goodput, Premium vs Standard", noCtx(tableGoodput)},
		{"xpeer", "§3.1.3 open question: reduced peering footprint", peeringReduction},
		{"xgroom", "§3.2.2 open question: anycast grooming, nature vs nurture", noCtx(groomingStudy)},
		{"xwan", "§3.3.2 open question: single-WAN behavior of public routes", noCtx(singleWANStudy)},
		{"xsplit", "§4: split TCP with WAN vs public backend", noCtx(splitTCPStudy)},
		{"xdiv", "§4: route diversity and peer fragility", noCtx(routeDiversityStudy)},
		{"xcap", "Edge Fabric's day job: capacity-driven egress overrides", noCtx(capacityStudy)},
		{"xdyn", "§4: site outages — anycast failover vs DNS caching", noCtx(siteOutageStudy)},
		{"xfaults", "Injected faults: BGP-vs-alternates degradation and blackholes", noCtx(faultStudy)},
		{"xavail", "Injected faults: anycast vs DNS-redirection availability", noCtx(anycastFaultAvailability)},
		{"xdetect", "Detection sensitivity: hold timers vs BFD under injected faults", noCtx(detectionStudy)},
		{"xflap", "Flap storms: route damping and emergent unreachability", noCtx(flapStormStudy)},
		{"xhybrid", "§4: hybrid anycast + DNS redirection policies", noCtx(hybridStudy)},
		{"xodin", "Odin-style measurement pipeline: budget vs prediction quality", noCtx(odinStudy)},
		{"xsites", "§3.2.2: CDN build-out — how many sites are enough?", siteDensityStudy},
		{"xinfer", "§3.2.2 / ref [26]: predicting catchments from public data", noCtx(catchmentInference)},
		{"xcorridor", "What-if: the WAN leases the Europe-Asia corridor", corridorStudy},
		{"xqoe", "§4: the improvable slice in sessions and engagement terms", noCtx(qoeStudy)},
		{"afate", "Ablation: shared-fate congestion disabled", ablationSharedFate},
		{"aecs", "Ablation: oracle-granularity DNS redirection", ablationECS},
		{"apni", "Ablation: PNIs as impairment-prone as public links", ablationPNI},
	}
}

// RunByID runs one experiment by its registry ID.
func RunByID(s *Scenario, id string) (Result, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(context.Background(), s)
		}
	}
	return Result{}, fmt.Errorf("core: unknown experiment %q", id)
}

// countryOf returns the ISO country of a city.
func (s *Scenario) countryOf(city int) string {
	return s.Topo.Catalog.City(city).Country
}

// sortedCountries returns table rows in stable order.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
