package beatbgp_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beatbgp"
)

var update = flag.Bool("update", false, "rewrite testdata/golden and testdata/api.txt from the current code")

// campaignStdout renders a default campaign exactly as `beatbgp -seed N
// -workers W` prints it on stdout: every experiment, in registry order,
// each behind a "# id" header.
func campaignStdout(t *testing.T, seed uint64, workers int) string {
	t.Helper()
	cfg := beatbgp.Config{Seed: seed, Workers: workers}
	rep, err := beatbgp.RunCampaign(t.Context(), beatbgp.Campaign{Base: cfg}, beatbgp.SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("seed %d: campaign incomplete: %v", seed, rep.FirstError())
	}
	var b strings.Builder
	for _, r := range rep.FinalResults() {
		fmt.Fprintf(&b, "\n# %s\n%s", r.ID, r.Render())
	}
	return b.String()
}

// checkGolden compares a full default campaign against its golden file
// (or rewrites the file under -update).
func checkGolden(t *testing.T, seed uint64, workers int) {
	t.Helper()
	path := filepath.Join("testdata", "golden", fmt.Sprintf("campaign.seed%d.txt", seed))
	got := campaignStdout(t, seed, workers)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("seed %d workers=%d: stdout diverges from %s at line %d:\n got: %q\nwant: %q",
				seed, workers, path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("seed %d workers=%d: stdout has %d lines, %s has %d", seed, workers, len(gl), path, len(wl))
}

// TestCampaignGolden pins the whole default campaign at seed 42: the
// bytes every experiment prints must not move unless a change means to
// move them (then regenerate with `go test -run TestCampaignGolden
// -update .` and say why).
func TestCampaignGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full default campaign")
	}
	checkGolden(t, 42, 0)
}

// TestStressCampaignGolden extends the golden check behind `make
// stress-golden`: seed 7, and seed 42 run serially, so the goldens also
// pin worker-count independence. Gated behind STRESS_GOLDEN=1 because
// it runs two more full campaigns.
func TestStressCampaignGolden(t *testing.T) {
	if os.Getenv("STRESS_GOLDEN") == "" {
		t.Skip("set STRESS_GOLDEN=1 (or run `make stress-golden`) to enable")
	}
	checkGolden(t, 7, 0)
	if !*update {
		checkGolden(t, 42, 1)
	}
}
