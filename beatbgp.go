// Package beatbgp reproduces "Beating BGP is Harder than we Thought"
// (Arnold et al., HotNets 2019) as a runnable system: a deterministic
// Internet simulator — physical cable map, AS-level topology with business
// relationships, valley-free BGP, geographic path resolution, congestion —
// plus the content-provider, anycast-CDN, and cloud-tier infrastructure
// the paper's three studies measured, and the experiments that regenerate
// every figure and in-text statistic on that substrate.
//
// # Quick start
//
//	s, err := beatbgp.NewScenario(beatbgp.Config{Seed: 42})
//	if err != nil { ... }
//	res, err := beatbgp.Run(s, "fig1")
//	if err != nil { ... }
//	fmt.Print(res.Render())
//
// A Scenario is a fully built world: topology, provider with private WAN
// and peering fabric, anycast CDN sites, LDNS population, and the
// congestion simulator. Experiments share the scenario, so traces and
// routing state computed by one are reused by the next. Everything is
// deterministic in Config.Seed.
//
// The experiment registry (Experiments) covers the paper's Figures 1-5,
// the in-text statistics around them, and the open questions of §3.1.3,
// §3.2.2, §3.3.2 and §4 (peering reduction, anycast grooming, single-WAN
// carriage, split TCP, availability). See DESIGN.md for the full index
// and EXPERIMENTS.md for paper-vs-measured values.
package beatbgp

import (
	"context"

	"beatbgp/internal/cdn"
	"beatbgp/internal/core"
	"beatbgp/internal/dnsmap"
	"beatbgp/internal/harness"
	"beatbgp/internal/netsim"
	"beatbgp/internal/provider"
	"beatbgp/internal/stats"
	"beatbgp/internal/topology"
	"beatbgp/internal/workload"
)

// Core orchestration types.
type (
	// Config assembles a scenario; the zero value plus a Seed is a
	// sensible laptop-scale default.
	Config = core.Config
	// Scenario is a fully built simulation world.
	Scenario = core.Scenario
	// World is a frozen, concurrently-queryable Scenario view — the
	// serving layer's handle (see Scenario.Freeze and internal/serve).
	World = core.World
	// Result is one experiment's output: named series (figure lines) and
	// tables (reported statistics).
	Result = core.Result
	// Experiment is one runnable paper artifact.
	Experiment = core.Experiment
	// BuildReport instruments a scenario build: per-stage wall time and
	// rebuilt-vs-reused counts (see Scenario.BuildReport and Derive).
	BuildReport = core.BuildReport
	// StageReport is one stage of a BuildReport.
	StageReport = core.StageReport
)

// Domain configuration and result types, for callers composing their own
// studies on the substrate.
type (
	TopologyConfig = topology.GenConfig
	ProviderConfig = provider.Config
	CDNConfig      = cdn.Config
	DNSConfig      = dnsmap.Config
	NetConfig      = netsim.Config
	WorkloadConfig = workload.Config

	// EgressOption is one route a provider PoP could use toward a prefix.
	EgressOption = provider.EgressOption
	// RouteClass ranks egress options under provider BGP policy.
	RouteClass = provider.RouteClass
	// Grooming holds manual anycast route-optimization knobs.
	Grooming = cdn.Grooming
	// TrainOpts tunes DNS-redirector training.
	TrainOpts = cdn.TrainOpts
	// Prefix is a client address block with geography and weight.
	Prefix = topology.Prefix

	// Series is a plottable line; Table a labelled grid.
	Series = stats.Series
	Table  = stats.Table
)

// Supervisor types: the crash-safe campaign runner (internal/harness)
// that cmd/beatbgp and long-running embedders drive, and the one way to
// run many experiments. A campaign is a grid of (experiment, seed) cells
// run with panic isolation, typed failure taxonomy, per-attempt
// deadlines, watchdog warnings, checkpoint/resume keyed by build-graph
// content, and graceful drain.
type (
	// Campaign is the work grid: experiments × seeds over a base config.
	Campaign = harness.Campaign
	// SupervisorConfig tunes deadlines, checkpointing and drain.
	SupervisorConfig = harness.Config
	// SupervisorEvent is one operator notification from a running campaign.
	SupervisorEvent = harness.Event
	// CampaignReport is a finished campaign's per-cell accounting.
	CampaignReport = harness.Report
	// Manifest is the machine-readable run summary persisted to the run dir.
	Manifest = harness.Manifest
	// Outcome records how one cell ended.
	Outcome = harness.Outcome
	// CellRef names one (experiment, seed) cell and its content key.
	CellRef = harness.CellRef
	// CellStatus is a cell's final disposition (ok, resumed, failed, ...).
	CellStatus = harness.Status
	// FailureKind files a failed cell under the supervisor's taxonomy.
	FailureKind = harness.Kind
)

// Supervisor event kinds.
const (
	EventWorld         = harness.EventWorld
	EventSlow          = harness.EventSlow
	EventCheckpoint    = harness.EventCheckpoint
	EventResumed       = harness.EventResumed
	EventBadCheckpoint = harness.EventBadCheckpoint
)

// ManifestName is the manifest's filename inside a run directory.
const ManifestName = harness.ManifestName

// Supervisor error taxonomy: failed cells match these under errors.Is,
// and ErrPartial marks a campaign that ended with incomplete cells (the
// exit-code-2 condition in cmd/beatbgp).
var (
	ErrPanic       = harness.ErrPanic
	ErrTimeout     = harness.ErrTimeout
	ErrCancelled   = harness.ErrCancelled
	ErrBuildFailed = harness.ErrBuildFailed
	ErrPartial     = harness.ErrPartial
)

// RunCampaign executes a supervised campaign: every (experiment, seed)
// cell isolated, bounded, checkpointed and drained per cfg. A resumed
// campaign's CampaignReport.FinalResults render byte-identically to an
// uninterrupted one's.
func RunCampaign(ctx context.Context, camp Campaign, cfg SupervisorConfig) (*CampaignReport, error) {
	return harness.Run(ctx, camp, cfg)
}

// WorldKey is the content key of the world cfg builds: the chained hash
// over every build-graph stage input. Two configs with equal keys build
// byte-identical worlds (worker count and other non-semantic knobs are
// excluded). It is the key checkpoints are filed under.
func WorldKey(cfg Config) (string, error) { return core.WorldKey(cfg) }

// Egress route classes, in decreasing BGP-policy preference.
const (
	ClassPNI        = provider.ClassPNI
	ClassPublicPeer = provider.ClassPublicPeer
	ClassTransit    = provider.ClassTransit
)

// NewScenario builds the simulation world for the config: every stage of
// the build graph (topology → provider/cdn/dns → oracle/resolver/sim/gen)
// runs fresh. To build a variation of an existing world, prefer
// Scenario.Derive:
//
//	sub, err := s.Derive(func(c *beatbgp.Config) { c.Net.DisableSharedFate = true })
//
// Derive rebuilds only the stages whose config changed and shares the
// unchanged immutable artifacts with the receiver by pointer, so sweeping
// a single knob costs a fraction of a full build. Derived scenarios are
// byte-for-byte equivalent to fresh ones: every experiment's Render()
// output is identical, at any worker count. Scenario.BuildReport shows
// what was rebuilt and what each stage cost.
func NewScenario(cfg Config) (*Scenario, error) { return core.NewScenario(cfg) }

// Experiments returns the full registry in the paper's order.
func Experiments() []Experiment { return core.Experiments() }

// Run executes one experiment by registry ID (e.g. "fig1", "t311",
// "xgroom") against the scenario. To run many experiments, sweep seeds,
// or bound a run with a deadline, use RunCampaign.
func Run(s *Scenario, id string) (Result, error) { return core.RunByID(s, id) }
