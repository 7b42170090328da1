package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"beatbgp/internal/bgp"
	"beatbgp/internal/cdn"
	"beatbgp/internal/dnsmap"
	"beatbgp/internal/matbgp"
	"beatbgp/internal/netpath"
	"beatbgp/internal/netsim"
	"beatbgp/internal/provider"
	"beatbgp/internal/topology"
	"beatbgp/internal/workload"
)

// The scenario build is an explicit staged graph. Every stage declares
// exactly which sub-config and upstream artifacts it consumes, and each
// built artifact carries a content key derived from that input slice:
//
//	topology  f(Topology)                 base AS-level world, pre-provider
//	provider  f(Provider, topology)       WAN + peering, on a topology clone
//	cdn       f(CDN, provider)            site ASes, on a provider-snapshot clone
//	dns       f(DNS, topology)            resolver population (reads only the
//	                                      eyeball ASes, so it keys on topology)
//	oracle    f(cdn)                      BGP oracle over the finished world
//	resolver  f(cdn)                      geographic path resolver, same world
//	sim       f(Net, cdn), always fresh   mutable congestion state
//	gen       f(Workload, sim, resolver), always fresh
//
// Derive rebuilds only the stages whose keys changed, sharing unchanged
// immutable artifacts by pointer; NewScenario is the degenerate case with
// no previous scenario. Because topology-mutating stages (provider, cdn)
// run on clones, the per-stage snapshots stay frozen and reusable, and
// "clone then extend" produces byte-identical worlds to a monolithic
// build — the determinism contract the equivalence tests lock down.

// Stage names, in build order.
const (
	StageTopology = "topology"
	StageProvider = "provider"
	StageCDN      = "cdn"
	StageDNS      = "dns"
	StageOracle   = "oracle"
	StageResolver = "resolver"
	StageSim      = "sim"
	StageGen      = "gen"
	StageEpochs   = "epochs"
)

// buildKeys holds the per-stage content keys for one normalized config,
// plus two derived keys that are not build-time stages but must enter
// the WorldKey because they change what experiments compute: the
// dynamics key (convergence + session models) and the epochs key (the
// fault epoch sequence the studies repair across — built lazily by
// Scenario.faultEpochs from the sim stage's schedule replayed under the
// dynamics models, hence keyed on exactly those two inputs).
type buildKeys struct {
	topo, prov, cdn, dns, oracle, res, sim, gen, dyn, epochs string
}

// computeKeys derives every stage key from the normalized config. Keys
// chain: a stage's key hashes its own sub-config plus its upstream
// stages' keys, so any upstream change invalidates the whole downstream
// slice. Config.Seed and Config.Workers are deliberately absent — the
// seed acts only through the derived per-stage seeds (already inside each
// sub-config after setDefaults), and the worker budget never changes what
// is built.
func computeKeys(cfg Config) buildKeys {
	var k buildKeys
	k.topo = stageKey(StageTopology, cfg.Topology)
	k.prov = stageKey(StageProvider, cfg.Provider, k.topo)
	k.cdn = stageKey(StageCDN, cfg.CDN, k.prov)
	k.dns = stageKey(StageDNS, cfg.DNS, k.topo)
	k.oracle = stageKey(StageOracle, k.cdn)
	k.res = stageKey(StageResolver, k.cdn)
	k.sim = stageKey(StageSim, cfg.Net, k.cdn)
	k.gen = stageKey(StageGen, cfg.Workload, k.sim, k.res)
	k.dyn = stageKey("dynamics", cfg.Convergence, cfg.Session)
	k.epochs = stageKey(StageEpochs, k.sim, k.dyn)
	return k
}

// WorldKey returns the content key of the fully built world for cfg: the
// chained hash of every stage key after seed derivation and validation.
// Two configs with equal WorldKeys build byte-identical worlds, so the
// key is the cache-invalidation handle for anything persisted about a
// scenario (internal/harness keys experiment checkpoints on it: a config
// change invalidates exactly the cells whose world it changes).
// Config.Workers is deliberately excluded — the worker budget never
// changes what is computed. Invalid configs return the validation error.
func WorldKey(cfg Config) (string, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	k := computeKeys(cfg)
	return stageKey("world", k.topo, k.prov, k.cdn, k.dns, k.oracle, k.res, k.sim, k.gen, k.dyn, k.epochs), nil
}

// CellKey chains a WorldKey with an experiment ID into the content key of
// one (world, experiment) cell — the unit internal/harness checkpoints.
func CellKey(worldKey, experimentID string) string {
	return stageKey("cell", worldKey, experimentID)
}

// stageKey hashes a stage name plus its inputs (sub-configs and upstream
// keys) into a short content key.
func stageKey(stage string, inputs ...any) string {
	h := sha256.New()
	io.WriteString(h, stage)
	for _, in := range inputs {
		io.WriteString(h, "\x00")
		if s, ok := in.(string); ok {
			io.WriteString(h, s)
			continue
		}
		hashValue(h, reflect.ValueOf(in))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// hashValue writes a canonical encoding of v: struct fields in order with
// their names, map entries sorted by key, slices in order. Configs are
// plain data (scalars, strings, slices, maps), so this covers every field
// a sub-config can grow without further maintenance.
func hashValue(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		fmt.Fprintf(w, "b%t;", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "i%d;", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(w, "u%d;", v.Uint())
	case reflect.Float32, reflect.Float64:
		io.WriteString(w, "f"+strconv.FormatFloat(v.Float(), 'g', -1, 64)+";")
	case reflect.String:
		fmt.Fprintf(w, "s%d:%s;", v.Len(), v.String())
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "l%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			hashValue(w, v.Index(i))
		}
		io.WriteString(w, ";")
	case reflect.Map:
		type entry struct {
			repr string
			key  reflect.Value
		}
		entries := make([]entry, 0, v.Len())
		for _, k := range v.MapKeys() {
			var kb strings.Builder
			hashValue(&kb, k)
			entries = append(entries, entry{kb.String(), k})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].repr < entries[j].repr })
		fmt.Fprintf(w, "m%d:", v.Len())
		for _, e := range entries {
			io.WriteString(w, e.repr)
			hashValue(w, v.MapIndex(e.key))
		}
		io.WriteString(w, ";")
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil;")
			return
		}
		hashValue(w, v.Elem())
	case reflect.Struct:
		t := v.Type()
		fmt.Fprintf(w, "t%s{", t.Name())
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				continue // unexported: not part of a caller-visible config
			}
			io.WriteString(w, t.Field(i).Name+"=")
			hashValue(w, v.Field(i))
		}
		io.WriteString(w, "}")
	default:
		fmt.Fprintf(w, "?%s;", v.Kind())
	}
}

// StageReport records one stage of a scenario build.
type StageReport struct {
	Stage  string
	Key    string // content key over the stage's declared inputs
	Reused bool   // artifact shared from the previous scenario
	Wall   time.Duration
}

// BuildReport instruments one NewScenario or Derive call: per-stage wall
// time and rebuilt-vs-reused counts. Obtain it via Scenario.BuildReport;
// cmd/beatbgp surfaces it with -buildstats.
type BuildReport struct {
	Stages  []StageReport
	Rebuilt int
	Reused  int
	Wall    time.Duration // total build wall time
}

// Render formats the report as text.
func (r BuildReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "build: %d stage(s) rebuilt, %d reused, %v\n",
		r.Rebuilt, r.Reused, r.Wall.Round(time.Microsecond))
	for _, st := range r.Stages {
		verb := "rebuilt"
		if st.Reused {
			verb = "reused"
		}
		fmt.Fprintf(&b, "  %-9s %-16s %-8s %v\n", st.Stage, st.Key, verb,
			st.Wall.Round(time.Microsecond))
	}
	return b.String()
}

// BuildReport returns the instrumentation for this scenario's build: how
// long each stage took and which artifacts were reused from the scenario
// it was derived from (a fresh NewScenario rebuilds every stage).
func (s *Scenario) BuildReport() BuildReport { return s.report }

// Derive builds a scenario for a mutated configuration, rebuilding only
// the stages whose inputs changed and sharing every unchanged immutable
// artifact — topology, provider, CDN, DNS mapping, BGP oracle, path
// resolver — by pointer with the receiver. Per-scenario mutable state
// (the congestion simulator, the workload generator, and the lazy
// trace/tier caches) is always rebuilt fresh, so the derived scenario and
// the receiver never contend on mutable state.
//
// mutate receives the receiver's original (pre-normalization) Config, so
// per-stage seeds left zero by the caller are re-derived from Config.Seed
// in exactly one place (Config.setDefaults): mutating Seed alone reseeds
// and rebuilds the whole world, while explicitly pinned stage seeds are
// honored. A nil mutate derives an identical world with fresh mutable
// state.
//
// The determinism contract: Derive produces byte-identical experiment
// Render() output to a fresh NewScenario on the same config, at any
// worker count.
//
// Derive honors ctx's cancellation between stages, so a per-experiment
// deadline also bounds sub-scenario builds inside sweep studies.
func (s *Scenario) Derive(ctx context.Context, mutate func(*Config)) (*Scenario, error) {
	user := s.userCfg
	if mutate != nil {
		mutate(&user)
	}
	norm := user
	norm.setDefaults()
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	return build(ctx, norm, user, s)
}

// build runs the staged graph. norm is the normalized-and-validated
// config, user the caller's original; prev (nil for fresh builds) donates
// artifacts whose stage keys match.
func build(ctx context.Context, norm, user Config, prev *Scenario) (*Scenario, error) {
	s := &Scenario{Cfg: norm, userCfg: user, keys: computeKeys(norm)}
	start := time.Now()

	// stage times one step; reuse is attempted first, then fresh runs.
	stage := func(name, key, prevKey string, reuse func(), fresh func() error) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: build %s: %w", name, err)
		}
		t0 := time.Now()
		reused := prev != nil && reuse != nil && key == prevKey
		if reused {
			reuse()
			s.report.Reused++
		} else {
			if err := fresh(); err != nil {
				return err
			}
			s.report.Rebuilt++
		}
		s.report.Stages = append(s.report.Stages, StageReport{
			Stage: name, Key: key, Reused: reused, Wall: time.Since(t0),
		})
		return nil
	}
	var prevKeys buildKeys
	if prev != nil {
		prevKeys = prev.keys
	}

	if err := stage(StageTopology, s.keys.topo, prevKeys.topo,
		func() { s.baseTopo = prev.baseTopo },
		func() error {
			t, err := topology.Generate(norm.Topology)
			if err != nil {
				return fmt.Errorf("core: topology: %w", err)
			}
			s.baseTopo = t
			return nil
		}); err != nil {
		return nil, err
	}

	if err := stage(StageProvider, s.keys.prov, prevKeys.prov,
		func() { s.provTopo, s.Prov = prev.provTopo, prev.Prov },
		func() error {
			t := s.baseTopo.Clone()
			p, err := provider.Build(t, norm.Provider)
			if err != nil {
				return fmt.Errorf("core: provider: %w", err)
			}
			s.provTopo, s.Prov = t, p
			return nil
		}); err != nil {
		return nil, err
	}

	if err := stage(StageCDN, s.keys.cdn, prevKeys.cdn,
		// Reusing the CDN stage shares the donor's engine too: the topology
		// is the same, and lowering the batch engine again would redo the
		// compression work for the same answers.
		func() { s.Topo, s.CDN, s.Routes = prev.Topo, prev.CDN, prev.Routes },
		func() error {
			t := s.provTopo.Clone()
			c, err := cdn.Build(t, norm.CDN, lowerRoutes)
			if err != nil {
				return fmt.Errorf("core: cdn: %w", err)
			}
			s.Topo, s.CDN, s.Routes = t, c, c.Routes()
			return nil
		}); err != nil {
		return nil, err
	}

	if err := stage(StageDNS, s.keys.dns, prevKeys.dns,
		func() { s.DNS = prev.DNS },
		func() error {
			// The resolver population reads only the eyeball ASes and the
			// client prefixes, all of which exist in the base topology, so
			// the stage keys on (DNS config, topology) and survives
			// provider/CDN rebuilds.
			s.DNS = dnsmap.Build(s.baseTopo, norm.DNS)
			return nil
		}); err != nil {
		return nil, err
	}

	if err := stage(StageOracle, s.keys.oracle, prevKeys.oracle,
		func() { s.Oracle = prev.Oracle },
		func() error {
			// The oracle keys on the CDN stage, so s.Routes is always the
			// engine lowered from (or donated with) this exact topology.
			s.Oracle = bgp.NewOracle(s.Routes)
			return nil
		}); err != nil {
		return nil, err
	}

	if err := stage(StageResolver, s.keys.res, prevKeys.res,
		func() { s.Res = prev.Res },
		func() error {
			s.Res = netpath.NewResolver(s.Topo)
			return nil
		}); err != nil {
		return nil, err
	}

	// Mutable per-scenario state: always fresh, never donated.
	if err := stage(StageSim, s.keys.sim, "", nil,
		func() error {
			s.Sim = netsim.New(s.Topo, norm.Net, nil, nil, nil)
			return nil
		}); err != nil {
		return nil, err
	}
	if err := stage(StageGen, s.keys.gen, "", nil,
		func() error {
			s.Gen = workload.NewGenerator(s.Sim, s.Res, norm.Workload)
			return nil
		}); err != nil {
		return nil, err
	}

	s.report.Wall = time.Since(start)
	return s, nil
}

// lowerRoutes lowers the route engine from a CDN stage's finished
// topology: the batch engine of internal/matbgp. Tests swap in the
// recursive reference to check that the two render identically.
var lowerRoutes = func(t *topology.Topo) (bgp.Computer, error) {
	return matbgp.NewEngine(t)
}
