package beatbgp_test

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"beatbgp"
)

// Every leaf of the sweep is tried at explicit values from a fixed
// ladder, in order, until one changes a byte: a zero leaf means "use the
// default" and the sub-package defaults are unexported, so scaling the
// user value would change nothing. Cheap, mild values come first, so a
// live knob rarely reaches the extremes; a value Validate rejects or the
// world cannot be built at is skipped.
var (
	floatLadder  = []float64{0.7, 3, 0.2, 90, 3000}
	intLadder    = []int64{2, 1, 5}
	stringLadder = []string{"Ashburn", "Tokyo"}
)

// knobSkip names the leaves the sweep leaves alone: the seeds and the
// worker count, whose effect the determinism tests already pin.
var knobSkip = map[string]bool{
	"Seed": true, "Topology.Seed": true, "Provider.Seed": true, "CDN.Seed": true,
	"DNS.Seed": true, "Net.Seed": true, "Workload.Seed": true, "Workers": true,
}

// knobSetByExperiment lists the live leaves that move no byte of the
// default campaign because the experiments that read them set them
// themselves, each with the experiment that does.
var knobSetByExperiment = map[string]string{
	"DNS.ISPECSProb":         "aecs: only ECS-aware redirection reads it, on a derived world with ISPECSProb = 1",
	"Session.DisableDamping": "xflap: runs its storm with damping on and off; no other fault timeline reaches the suppress threshold",
}

// knobLeaf is one settable scalar of Config, reached by field index.
type knobLeaf struct {
	path  string
	index []int
	kind  reflect.Kind
}

// knobLeaves walks t depth-first and returns every numeric, bool and
// string leaf. Maps (the per-region PoP and site counts) are not leaves.
func knobLeaves(t reflect.Type, prefix string, index []int) []knobLeaf {
	var out []knobLeaf
	for i := range t.NumField() {
		f := t.Field(i)
		path := prefix + f.Name
		idx := append(slices.Clone(index), i)
		switch k := f.Type.Kind(); k {
		case reflect.Struct:
			out = append(out, knobLeaves(f.Type, path+".", idx)...)
		case reflect.Float64, reflect.Int, reflect.Uint64, reflect.Bool, reflect.String:
			out = append(out, knobLeaf{path, idx, k})
		}
	}
	return out
}

// ladder returns the values the sweep tries for a leaf of kind k.
func (l knobLeaf) ladder() []func(reflect.Value) {
	var out []func(reflect.Value)
	switch l.kind {
	case reflect.Float64:
		for _, v := range floatLadder {
			out = append(out, func(f reflect.Value) { f.SetFloat(v) })
		}
	case reflect.Int:
		for _, v := range intLadder {
			out = append(out, func(f reflect.Value) { f.SetInt(v) })
		}
	case reflect.Bool:
		out = append(out, func(f reflect.Value) { f.SetBool(true) })
	case reflect.String:
		for _, v := range stringLadder {
			out = append(out, func(f reflect.Value) { f.SetString(v) })
		}
	}
	return out
}

// TestNoDeadKnobs is the dead-knob sweep behind `make knobs`. For every
// numeric, bool and string leaf of Config but the seeds and Workers, it
// derives the seed-42 world with the leaf set to each ladder value in
// turn and renders the full campaign in registry order, as `beatbgp
// -seed 42` prints it. A leaf that no accepted value moves by a byte is
// dead, and the test names it: delete it or make it do something. An
// allowlisted leaf that does move the campaign is named too, so the
// allowlist cannot go stale. Gated behind KNOBS=1 because it runs about
// sixty campaigns.
func TestNoDeadKnobs(t *testing.T) {
	if os.Getenv("KNOBS") == "" {
		t.Skip("set KNOBS=1 (or run `make knobs`) to enable")
	}
	base, err := beatbgp.NewScenario(beatbgp.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	exps := beatbgp.Experiments()
	want := make([]string, len(exps))
	for i, e := range exps {
		r, err := beatbgp.Run(base, e.ID)
		if err != nil {
			t.Fatalf("base %s: %v", e.ID, err)
		}
		want[i] = r.Render()
	}
	// moves reports whether s renders any experiment differently from the
	// base world, stopping at the first that does. An experiment that
	// fails on s, where it ran on the base world, moves it too.
	moves := func(s *beatbgp.Scenario) bool {
		for i, e := range exps {
			r, err := beatbgp.Run(s, e.ID)
			if err != nil || r.Render() != want[i] {
				return true
			}
		}
		return false
	}

	leaves := knobLeaves(reflect.TypeFor[beatbgp.Config](), "", nil)
	seen := make(map[string]bool)
	var dead, stale, unreached []string
	for _, l := range leaves {
		seen[l.path] = true
		if knobSkip[l.path] {
			continue
		}
		tried, moved := 0, false
		for _, set := range l.ladder() {
			s, err := base.Derive(t.Context(), func(c *beatbgp.Config) {
				set(reflect.ValueOf(c).Elem().FieldByIndex(l.index))
			})
			if err != nil {
				continue // rejected by Validate, or unbuildable
			}
			tried++
			if moves(s) {
				moved = true
				break
			}
		}
		_, allowed := knobSetByExperiment[l.path]
		switch {
		case tried == 0:
			unreached = append(unreached, l.path)
		case moved && allowed:
			stale = append(stale, l.path)
		case !moved && !allowed:
			dead = append(dead, l.path)
		}
		t.Logf("%-32s tried %d, moved %v", l.path, tried, moved)
	}
	for path := range knobSetByExperiment {
		if !seen[path] {
			stale = append(stale, path+" (no such leaf)")
		}
	}
	for _, p := range [][]string{dead, stale, unreached} {
		slices.Sort(p)
	}
	if len(unreached) > 0 {
		t.Errorf("Validate or the build rejected every ladder value of %s: extend the ladder", strings.Join(unreached, ", "))
	}
	if len(stale) > 0 {
		t.Errorf("allowlisted leaves that move the default campaign (drop them from knobSetByExperiment): %s", strings.Join(stale, ", "))
	}
	if len(dead) > 0 {
		t.Errorf("dead knobs, no ladder value moves a byte of the seed-42 campaign: %s", strings.Join(dead, ", "))
	}
	t.Logf("%d leaves swept, %d dead", len(leaves)-len(knobSkip), len(dead))
}
