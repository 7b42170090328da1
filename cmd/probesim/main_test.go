package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// bin is the binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "probesim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "probesim")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBin runs the built binary and returns its stdout, stderr and exit
// code.
func runBin(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil && !errors.As(err, new(*exec.ExitError)) {
		t.Fatalf("%v: %v", args, err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

// TestExitCodes pins the exit contract of the built binary: bad flags,
// bad values and stray arguments are a hard failure (1) and name the
// offender; -h exits cleanly.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-no-such-flag"}, 1},
		{[]string{"-n", "0"}, 1},
		{[]string{"-day", "-1"}, 1},
		{[]string{"stray"}, 1},
		{[]string{"-h"}, 0},
	} {
		_, stderr, code := runBin(t, tc.args...)
		if code != tc.want {
			t.Errorf("%v: exit code %d, want %d; stderr:\n%s", tc.args, code, tc.want, stderr)
		}
		if tc.want == 1 && !strings.Contains(stderr, strings.TrimLeft(tc.args[0], "-")) {
			t.Errorf("%v: stderr does not name the offender:\n%s", tc.args, stderr)
		}
	}
}

// TestSmoke runs the binary twice with the same arguments: both runs
// print one row per vantage point and the credit bill, byte for byte
// the same.
func TestSmoke(t *testing.T) {
	out, stderr, code := runBin(t, "-n", "2")
	if code != 0 {
		t.Fatalf("exit code %d; stderr:\n%s", code, stderr)
	}
	if again, _, _ := runBin(t, "-n", "2"); again != out {
		t.Fatalf("two runs differ:\n%s\n---\n%s", out, again)
	}
	if rows := regexp.MustCompile(`(?m)^vp\d+ `).FindAllString(out, -1); len(rows) != 2 {
		t.Errorf("%d vp rows, want 2:\n%s", len(rows), out)
	}
	if !regexp.MustCompile(`(?m)^credits used: \d+$`).MatchString(out) {
		t.Errorf("no credits line:\n%s", out)
	}
}
