package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"beatbgp"
)

// runBin executes the built binary and returns its stdout and exit code.
func runBin(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	if code != 0 {
		t.Logf("stderr:\n%s", errb.String())
	}
	return out.String(), code
}

// TestStressKillResume is the end-to-end crash-safety check behind
// `make stress-harness`: it SIGKILLs a live campaign the moment its
// first checkpoint lands, resumes it, and asserts the resumed stdout is
// byte-identical to an uninterrupted run's — with zero re-runs of
// checkpointed cells per the manifest. Gated behind STRESS_HARNESS=1
// because it builds the binary and runs three full campaigns.
func TestStressKillResume(t *testing.T) {
	if os.Getenv("STRESS_HARNESS") == "" {
		t.Skip("set STRESS_HARNESS=1 (or run `make stress-harness`) to enable")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "beatbgp")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}

	common := []string{
		"-seed", "42", "-seeds", "2", "-exp", "t32,fig2,xflap,xdetect",
		"-eyeballs", "6", "-days", "2", "-workers", "2",
	}

	// Baseline: an uninterrupted campaign.
	want, code := runBin(t, bin, append(common, "-run-dir", filepath.Join(tmp, "base"))...)
	if code != 0 {
		t.Fatalf("baseline exited %d", code)
	}
	if want == "" {
		t.Fatal("baseline produced no stdout")
	}

	// Victim: SIGKILL the process as soon as its first checkpoint lands.
	dir := filepath.Join(tmp, "victim")
	victim := exec.Command(bin, append(common, "-run-dir", dir)...)
	victim.Stdout = new(bytes.Buffer)
	victim.Stderr = new(bytes.Buffer)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- victim.Wait() }()
	deadline := time.After(3 * time.Minute)
	killed := false
poll:
	for {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".json") && e.Name() != beatbgp.ManifestName {
				victim.Process.Kill() // SIGKILL: no drain, no manifest, maybe a torn temp
				killed = true
				break poll
			}
		}
		select {
		case <-exited:
			// Finished before we could kill it: the resume below degrades
			// to an everything-restored run, which must still match.
			t.Log("victim completed before the kill landed")
			break poll
		case <-deadline:
			victim.Process.Kill()
			t.Fatal("no checkpoint appeared within the deadline")
		case <-time.After(25 * time.Millisecond):
		}
	}
	if killed {
		<-exited
	}

	// Resume must finish the campaign and reproduce the baseline bytes.
	got, code := runBin(t, bin, append(common, "-resume", dir)...)
	if code != 0 {
		t.Fatalf("resume exited %d", code)
	}
	if got != want {
		t.Fatalf("resumed stdout differs from uninterrupted baseline:\n got: %q\nwant: %q", got, want)
	}

	// The manifest must show the checkpointed cells were restored, not
	// re-run: zero attempts on every resumed cell.
	data, err := os.ReadFile(filepath.Join(dir, beatbgp.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m beatbgp.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if !m.Complete || m.ExitCode != 0 {
		t.Fatalf("manifest after resume: complete=%v exit=%d", m.Complete, m.ExitCode)
	}
	resumed := 0
	for _, o := range m.Outcomes {
		if o.Status == "resumed" {
			resumed++
			if o.Attempts != 0 {
				t.Errorf("resumed cell %s seed=%d recorded %d attempts, want 0", o.Experiment, o.Seed, o.Attempts)
			}
		}
	}
	if resumed == 0 {
		t.Error("no cell was resumed; the kill landed after completion and the checkpoints were ignored")
	}
}

// TestExitCodes pins the exit contract: bad flags are a hard failure
// (1), never the partial-run code (2) — a script still passing a removed
// flag must not read as a partial campaign — and -h exits cleanly.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-no-such-flag"}, 1},
		{[]string{"-engine", "oracle"}, 1},
		{[]string{"-h"}, 0},
	} {
		err := run(tc.args)
		if got := exitCode(err); got != tc.want {
			t.Errorf("%v: exit code %d (err %v), want %d", tc.args, got, err, tc.want)
		}
		if tc.want == 1 && (err == nil || !strings.Contains(err.Error(), tc.args[0])) {
			t.Errorf("%v: error %v does not name the flag", tc.args, err)
		}
	}
	if got := exitCode(fmt.Errorf("%w: 1 of 2 cells incomplete", beatbgp.ErrPartial)); got != 2 {
		t.Errorf("partial campaign: exit code %d, want 2", got)
	}
}

// TestUnbuildableWorldExitsOne: a campaign none of whose worlds can be
// built (here the config names a data-center city the catalog lacks,
// which passes Validate and fails the provider stage) is a hard failure
// — exit 1 with the build error as the cause — not a partial run, while
// a campaign with a completed cell beside a build-failed one stays
// partial (exit 2).
func TestUnbuildableWorldExitsOne(t *testing.T) {
	dir := t.TempDir()
	cfg := beatbgp.Config{Seed: 42, Workers: 2}
	cfg.Provider.DCCity = "Atlantis"
	rep, err := beatbgp.RunCampaign(context.Background(),
		beatbgp.Campaign{Base: cfg, IDs: []string{"t31"}},
		beatbgp.SupervisorConfig{RunDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	err = campaignErr(rep)
	if got := exitCode(err); got != 1 {
		t.Fatalf("unbuildable world: exit code %d (err %v), want 1", got, err)
	}
	if !strings.Contains(err.Error(), "Atlantis") || !errors.Is(err, beatbgp.ErrBuildFailed) {
		t.Fatalf("unbuildable world: error %q does not carry the build failure", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, beatbgp.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m beatbgp.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Complete || m.ExitCode != 1 {
		t.Fatalf("manifest: complete=%v exit=%d, want false/1", m.Complete, m.ExitCode)
	}

	failed := beatbgp.Outcome{CellRef: beatbgp.CellRef{Experiment: "t31", Seed: 43},
		Status: "failed", Kind: "build-failed", Err: `provider: unknown DC city "Atlantis"`, Attempts: 1}
	ok := beatbgp.Outcome{CellRef: beatbgp.CellRef{Experiment: "t31", Seed: 42}, Status: "ok", Attempts: 1}
	for _, tc := range []struct {
		name     string
		outcomes []beatbgp.Outcome
		want     int
	}{
		{"every world unbuildable", []beatbgp.Outcome{failed, failed}, 1},
		{"one cell completed", []beatbgp.Outcome{ok, failed}, 2},
	} {
		err := campaignErr(&beatbgp.CampaignReport{Outcomes: tc.outcomes})
		if got := exitCode(err); got != tc.want {
			t.Errorf("%s: exit code %d (err %v), want %d", tc.name, got, err, tc.want)
		}
		if err == nil || (tc.want == 1) != strings.Contains(err.Error(), "Atlantis") {
			t.Errorf("%s: error %v", tc.name, err)
		}
	}
}

// TestCPUProfile: -cpuprofile writes a non-empty gzip-compressed pprof
// profile of a successful run.
func TestCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := run([]string{"-exp", "t32", "-cpuprofile", path}); exitCode(err) != 0 {
		t.Fatalf("-exp t32 -cpuprofile: exit code %d (err %v), want 0", exitCode(err), err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile is %d bytes without the gzip magic", len(data))
	}
	if err := run([]string{"-exp", "t32", "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir")}); exitCode(err) != 1 {
		t.Fatalf("unwritable -cpuprofile: exit code %d (err %v), want 1", exitCode(err), err)
	}
}

// TestMemProfile: -memprofile writes a non-empty gzip-compressed pprof
// heap profile of a successful run; an unwritable path exits 1.
func TestMemProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.pprof")
	if err := run([]string{"-exp", "t32", "-memprofile", path}); exitCode(err) != 0 {
		t.Fatalf("-exp t32 -memprofile: exit code %d (err %v), want 0", exitCode(err), err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile is %d bytes without the gzip magic", len(data))
	}
	if err := run([]string{"-exp", "t32", "-memprofile", filepath.Join(t.TempDir(), "no", "such", "dir")}); exitCode(err) != 1 {
		t.Fatalf("unwritable -memprofile: exit code %d (err %v), want 1", exitCode(err), err)
	}
}
