package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"beatbgp"
	"beatbgp/internal/serve"
)

// daemon is the binary under test, built once by TestMain.
var daemon string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "beatbgpd-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemon = filepath.Join(dir, "beatbgpd")
	build := exec.Command("go", "build", "-o", daemon, ".")
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

// TestExitCodes pins the exit contract of the built binary: bad flags
// and stray arguments are a hard failure (1) and name the offender
// before any world is built; -h exits cleanly.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-no-such-flag"}, 1},
		{[]string{"-days", "-1"}, 1},
		{[]string{"stray"}, 1},
		{[]string{"-h"}, 0},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(daemon, tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if code != tc.want {
			t.Errorf("%v: exit code %d, want %d; stderr:\n%s", tc.args, code, tc.want, stderr.String())
		}
		if tc.want == 1 && !strings.Contains(stderr.String(), strings.TrimLeft(tc.args[0], "-")) {
			t.Errorf("%v: stderr does not name the offender:\n%s", tc.args, stderr.String())
		}
	}
}

// TestDaemonSmoke drives the built binary end to end: it starts on an
// ephemeral port, announces the bound address on stderr, serves
// /world and /latency bytes equal to the library answers over the same
// world, and drains to exit 0 on SIGTERM.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world in the daemon and one in the test")
	}
	cmd := exec.Command(daemon, "-addr", "127.0.0.1:0", "-eyeballs", "6", "-days", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Read stderr up to the serving line (the address comes after it),
	// then keep draining it so the daemon never blocks on a full pipe.
	const serving = "beatbgpd: serving on http://"
	addr := make(chan string, 1)
	var rest bytes.Buffer
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if l := sc.Text(); strings.HasPrefix(l, serving) {
				addr <- strings.TrimPrefix(l, serving)
				break
			}
			rest.WriteString(sc.Text() + "\n")
		}
		close(addr)
		io.Copy(&rest, stderr)
	}()
	a, ok := <-addr
	if !ok {
		<-drained
		t.Fatalf("daemon exited without a serving line:\n%s", rest.String())
	}
	base := "http://" + a

	cfg := beatbgp.Config{Seed: 42}
	cfg.Topology.EyeballsPerRegion = 6
	cfg.Workload.Days = 2
	s, err := beatbgp.NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	lib := serve.New(w)
	lat, err := lib.AnswerLatency(3, 600)
	if err != nil {
		t.Fatal(err)
	}
	for path, v := range map[string]any{
		"/world":                  lib.AnswerWorld(),
		"/latency?prefix=3&t=600": lat,
	} {
		want, err := serve.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v: %s", path, resp.StatusCode, err, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GET %s:\n got: %s\nwant: %s", path, got, want)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-drained // all stderr read: Wait may close the pipe now
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v\nstderr:\n%s", err, rest.String())
	}
	if !strings.Contains(rest.String(), "beatbgpd: drained") {
		t.Fatalf("no drained line on stderr:\n%s", rest.String())
	}
}

// TestDaemonDeps pins what the daemon links: it builds its world through
// internal/core, so neither the root facade nor the campaign supervisor
// may appear in its dependency list.
func TestDaemonDeps(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	if !deps["beatbgp/internal/core"] {
		t.Fatalf("dependency list lacks beatbgp/internal/core:\n%s", out)
	}
	for _, banned := range []string{"beatbgp", "beatbgp/internal/harness"} {
		if deps[banned] {
			t.Errorf("beatbgpd links %s", banned)
		}
	}
}
