package core

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// deriveMutations are the stage-targeted config edits the equivalence and
// reuse tests sweep: one per rebuildable stage, plus a full reseed.
var deriveMutations = []struct {
	name   string
	exp    string // experiment whose Render() is compared byte-for-byte
	mutate func(*Config)
}{
	{"net_only", "t32", func(c *Config) { c.Net.DisableSharedFate = true }},
	{"provider_only", "t32", func(c *Config) { c.Provider.PeerKeepFraction = 0.5 }},
	{"cdn_only", "t32", func(c *Config) { c.CDN.EyeballPeerProb = 0.9 }},
	{"dns_only", "fig4", func(c *Config) { c.DNS.ISPECSProb = 1 }},
	{"reseed", "t32", func(c *Config) { c.Seed = 99 }},
}

// TestWorldKey pins the checkpoint-keying contract: the key is a stable
// pure function of the normalized config, changes with anything that
// changes the built world (a stage knob, the seed), and ignores the
// operational knobs (Workers) that cannot change what is computed.
func TestWorldKey(t *testing.T) {
	base := smallConfig(42)
	k1, err := WorldKey(base)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := WorldKey(base)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == "" || k1 != k2 {
		t.Fatalf("key not stable: %q vs %q", k1, k2)
	}
	workers := base
	workers.Workers = 8
	if kw, _ := WorldKey(workers); kw != k1 {
		t.Fatalf("worker budget changed the world key: %q vs %q", kw, k1)
	}
	for _, m := range deriveMutations {
		mut := smallConfig(42)
		m.mutate(&mut)
		if km, err := WorldKey(mut); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		} else if km == k1 {
			t.Errorf("%s: mutation did not change the world key", m.name)
		}
	}
	bad := base
	bad.Workload.Days = -1
	if _, err := WorldKey(bad); err == nil {
		t.Fatal("invalid config produced a key")
	}
}

// TestDeriveEquivalence is the build graph's determinism contract: for
// every stage-targeted mutation, Derive must produce byte-identical
// experiment output to a fresh NewScenario on the same mutated config.
func TestDeriveEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds many worlds")
	}
	for _, seed := range []uint64{42, 7} {
		base := scenario(t, seed)
		for _, m := range deriveMutations {
			derived, err := base.Derive(context.Background(), m.mutate)
			if err != nil {
				t.Fatalf("seed %d %s: derive: %v", seed, m.name, err)
			}
			cfg := smallConfig(seed)
			m.mutate(&cfg)
			fresh, err := NewScenario(cfg)
			if err != nil {
				t.Fatalf("seed %d %s: fresh build: %v", seed, m.name, err)
			}
			got, err := RunByID(derived, m.exp)
			if err != nil {
				t.Fatalf("seed %d %s: run derived: %v", seed, m.name, err)
			}
			want, err := RunByID(fresh, m.exp)
			if err != nil {
				t.Fatalf("seed %d %s: run fresh: %v", seed, m.name, err)
			}
			if got.Render() != want.Render() {
				t.Errorf("seed %d %s: derived %s differs from fresh build:\nderived:\n%s\nfresh:\n%s",
					seed, m.name, m.exp, got.Render(), want.Render())
			}
		}
	}
}

// TestDeriveEquivalenceWorkers pins the contract at different worker
// counts: a derived world's parallel-sweep output matches a fresh
// sequential build byte-for-byte.
func TestDeriveEquivalenceWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several worlds and replays traces")
	}
	fcfg := smallConfig(42)
	fcfg.Workers = 1
	fcfg.Net.DisableSharedFate = true
	fresh, err := NewScenario(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunByID(fresh, "t311")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 8} {
		cfg := smallConfig(42)
		cfg.Workers = w
		base, err := NewScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		derived, err := base.Derive(context.Background(), func(c *Config) { c.Net.DisableSharedFate = true })
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunByID(derived, "t311")
		if err != nil {
			t.Fatal(err)
		}
		if got.Render() != want.Render() {
			t.Errorf("workers=%d: derived t311 differs from fresh workers=1 build", w)
		}
	}
}

// stageReused reports whether the named stage was reused in the report.
func stageReused(t *testing.T, r BuildReport, stage string) bool {
	t.Helper()
	for _, st := range r.Stages {
		if st.Stage == stage {
			return st.Reused
		}
	}
	t.Fatalf("stage %s missing from report", stage)
	return false
}

func TestDeriveArtifactReuse(t *testing.T) {
	base := scenario(t, 42)
	if r := base.BuildReport(); r.Rebuilt != 8 || r.Reused != 0 || len(r.Stages) != 8 {
		t.Fatalf("fresh build report: rebuilt=%d reused=%d stages=%d, want 8/0/8",
			r.Rebuilt, r.Reused, len(r.Stages))
	}

	// Net-only: every immutable artifact is shared by pointer; only the
	// mutable sim and generator are fresh.
	netOnly, err := base.Derive(context.Background(), func(c *Config) { c.Net.DisableSharedFate = true })
	if err != nil {
		t.Fatal(err)
	}
	if netOnly.Topo != base.Topo || netOnly.Prov != base.Prov || netOnly.CDN != base.CDN ||
		netOnly.DNS != base.DNS || netOnly.Oracle != base.Oracle || netOnly.Res != base.Res {
		t.Error("net-only derive must share Topo/Prov/CDN/DNS/Oracle/Res by pointer")
	}
	if netOnly.Sim == base.Sim || netOnly.Gen == base.Gen {
		t.Error("net-only derive must rebuild the mutable Sim and Gen")
	}
	if r := netOnly.BuildReport(); r.Reused != 6 || r.Rebuilt != 2 {
		t.Errorf("net-only report: reused=%d rebuilt=%d, want 6/2", r.Reused, r.Rebuilt)
	}

	// CDN-only: the provider and DNS artifacts survive; the world topology
	// is re-extended from the frozen provider snapshot (the CDN stage adds
	// its site ASes to the topology, so the final Topo pointer is new even
	// though the topology and provider *stages* are reused).
	cdnOnly, err := base.Derive(context.Background(), func(c *Config) { c.CDN.EyeballPeerProb = 0.9 })
	if err != nil {
		t.Fatal(err)
	}
	if cdnOnly.Prov != base.Prov || cdnOnly.DNS != base.DNS {
		t.Error("cdn-only derive must share Prov and DNS by pointer")
	}
	if cdnOnly.Topo == base.Topo || cdnOnly.CDN == base.CDN {
		t.Error("cdn-only derive must rebuild the CDN and the world topology it extends")
	}
	r := cdnOnly.BuildReport()
	for _, stage := range []string{StageTopology, StageProvider, StageDNS} {
		if !stageReused(t, r, stage) {
			t.Errorf("cdn-only derive: stage %s should be reused", stage)
		}
	}
	for _, stage := range []string{StageCDN, StageOracle, StageResolver, StageSim, StageGen} {
		if stageReused(t, r, stage) {
			t.Errorf("cdn-only derive: stage %s should be rebuilt", stage)
		}
	}

	// No mutation: the whole immutable world is shared; only fresh mutable
	// state comes back (the xdiv twin-sim pattern).
	twin, err := base.Derive(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if twin.Topo != base.Topo || twin.Oracle != base.Oracle {
		t.Error("nil-mutation derive must share the immutable world")
	}
	if twin.Sim == base.Sim {
		t.Error("nil-mutation derive must still build a fresh Sim")
	}

	// Provider-only: the rebuilt provider lays its WAN on its own copy of
	// the cable map, so the base world's graph keeps its edges.
	edges := base.Topo.Graph.NumEdges()
	if _, err := base.Derive(context.Background(), func(c *Config) { c.Provider.Seed = 99 }); err != nil {
		t.Fatal(err)
	}
	if got := base.Topo.Graph.NumEdges(); got != edges {
		t.Errorf("provider-only derive grew the base cable graph from %d to %d edges", edges, got)
	}

	// Session-only: the BFD twin shares the CDN but compiles a different
	// epoch sequence. Freezing both must leave each world answering at
	// its own epochs: every anycast RIB of the first world equals a
	// rebuild at that world's cumulative down set.
	bfd, err := base.Derive(context.Background(), func(c *Config) { c.Session.BFD = true })
	if err != nil {
		t.Fatal(err)
	}
	if bfd.CDN != base.CDN {
		t.Fatal("session-only derive must share the CDN by pointer")
	}
	w1, err := base.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := bfd.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if seqDigest(w1.Epochs) == seqDigest(w2.Epochs) {
		t.Fatal("BFD did not change the epoch sequence; the twins cannot tell views apart")
	}
	anns := base.CDN.Announcements(nil)
	for _, w := range []*World{w1, w2} {
		for e := 0; e < w.Epochs.Len(); e++ {
			got, err := w.CDN.AnycastRIBAt(e)
			if err != nil {
				t.Fatal(err)
			}
			want, err := base.Routes.ComputeWithout(anns, w.Epochs.Epoch(e).DownSet())
			if err != nil {
				t.Fatal(err)
			}
			if ribDigest(base, got) != ribDigest(base, want) {
				t.Fatalf("world %s epoch %d: anycast RIB differs from the rebuild at its own down set", w.Key, e)
			}
		}
	}

	// A full reseed invalidates every key.
	reseed, err := base.Derive(context.Background(), func(c *Config) { c.Seed = 99 })
	if err != nil {
		t.Fatal(err)
	}
	if r := reseed.BuildReport(); r.Reused != 0 {
		t.Errorf("reseed report: reused=%d, want 0", r.Reused)
	}
}

// TestDeriveReseedsPinnedStage checks the centralized seed derivation: a
// stage seed the caller pinned explicitly is held fixed (and its artifact
// reused) when Config.Seed changes, while unpinned stages reseed.
func TestDeriveReseedsPinnedStage(t *testing.T) {
	cfg := smallConfig(42)
	cfg.Topology.Seed = 1234
	base, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := base.Derive(context.Background(), func(c *Config) { c.Seed = 7 })
	if err != nil {
		t.Fatal(err)
	}
	if !stageReused(t, d.BuildReport(), StageTopology) {
		t.Error("pinned Topology.Seed: topology stage should be reused across a Seed change")
	}
	if stageReused(t, d.BuildReport(), StageProvider) {
		t.Error("unpinned Provider.Seed: provider stage should reseed and rebuild")
	}
	if got, want := d.Cfg.Provider.Seed, uint64(7+1); got != want {
		t.Errorf("derived Provider.Seed = %d, want %d", got, want)
	}
	if got, want := d.Cfg.Topology.Seed, uint64(1234); got != want {
		t.Errorf("derived Topology.Seed = %d, want %d", got, want)
	}
}

// TestConcurrentDerivedScenarios exercises two scenarios sharing a
// topology (and CDN, oracle, resolver) from concurrent goroutines; run
// under -race this guards the artifact-sharing safety claim.
func TestConcurrentDerivedScenarios(t *testing.T) {
	base := scenario(t, 42)
	derived, err := base.Derive(context.Background(), func(c *Config) { c.Net.DisableSharedFate = true })
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, s := range []*Scenario{base, derived} {
		wg.Add(1)
		go func(s *Scenario) {
			defer wg.Done()
			// fig3 drives the shared CDN's lazily cached anycast RIB.
			if _, err := RunByID(s, "fig3"); err != nil {
				t.Error(err)
			}
		}(s)
	}
	wg.Wait()
}

func TestDeriveContextCancelled(t *testing.T) {
	base := scenario(t, 42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := base.Derive(ctx, nil); err == nil {
		t.Error("Derive with cancelled context should fail")
	}
	if _, err := NewScenarioContext(ctx, smallConfig(42)); err == nil {
		t.Error("NewScenarioContext with cancelled context should fail")
	}
}

func TestDeriveRejectsInvalidMutation(t *testing.T) {
	base := scenario(t, 42)
	if _, err := base.Derive(context.Background(), func(c *Config) { c.DNS.ISPECSProb = 2 }); err == nil {
		t.Error("Derive should validate the mutated config")
	}
}

func TestBuildReportRender(t *testing.T) {
	base := scenario(t, 42)
	out := base.BuildReport().Render()
	for _, stage := range []string{StageTopology, StageProvider, StageCDN, StageDNS,
		StageOracle, StageResolver, StageSim, StageGen} {
		if !strings.Contains(out, stage) {
			t.Errorf("report render missing stage %s:\n%s", stage, out)
		}
	}
	if !strings.Contains(out, "8 stage(s) rebuilt") {
		t.Errorf("report render missing summary line:\n%s", out)
	}
}

// TestStageKeyDeterminism guards the content-key hasher: identical
// configs key identically (map iteration order must not leak in), and
// any sub-config change must move the key.
func TestStageKeyDeterminism(t *testing.T) {
	cfg := smallConfig(42)
	cfg.setDefaults()
	a, b := computeKeys(cfg), computeKeys(cfg)
	if a != b {
		t.Fatalf("same config keyed differently: %+v vs %+v", a, b)
	}
	mut := cfg
	mut.CDN.EyeballPeerProb = 0.9
	c := computeKeys(mut)
	if c.cdn == a.cdn {
		t.Error("CDN config change did not move the cdn stage key")
	}
	if c.topo != a.topo || c.prov != a.prov || c.dns != a.dns {
		t.Error("CDN config change moved an upstream/sibling stage key")
	}
	if c.oracle == a.oracle || c.sim == a.sim || c.gen == a.gen {
		t.Error("CDN config change did not cascade to downstream stage keys")
	}
}

// TestWorldKeyPinned pins the default worlds' keys at seeds 42 and 7. A
// change to a stage's config, its defaults or the key derivation fails
// here: it orphans every checkpoint keyed by the old value.
func TestWorldKeyPinned(t *testing.T) {
	for seed, want := range map[uint64]string{42: "95d7e7ed28721dba", 7: "821520818ec68a56"} {
		got, err := WorldKey(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("WorldKey(seed %d) = %q, pinned %q", seed, got, want)
		}
	}
}
