package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// repoRoot finds the checkout root — the nearest directory at or above
// the working directory that holds cmd/beatbgpd — so the benchmark runs
// the same from the root (go run -C bench .) and from bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "beatbgpd", "main.go")); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", fmt.Errorf("no cmd/beatbgpd above the working directory: run from inside the repository")
		}
		dir = up
	}
}

// outDir is where the benchmark keeps everything it writes (binaries,
// run directories, the trace file); the root .gitignore names it.
func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// buildBinaries compiles the programs under test from the checkout's
// source into bench/out/bin and returns their paths by command name.
func buildBinaries(root string) (map[string]string, error) {
	bin := filepath.Join(outDir(root), "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/beatbgpd", "./cmd/beatbgp")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/beatbgpd ./cmd/beatbgp: %v\n%s", err, out)
	}
	return map[string]string{
		"beatbgpd": filepath.Join(bin, "beatbgpd"),
		"beatbgp":  filepath.Join(bin, "beatbgp"),
	}, nil
}

// usage is what a finished child cost: user+system CPU and peak RSS.
type usage struct {
	cpu   time.Duration
	rssMB float64
}

func usageOf(ps *os.ProcessState) usage {
	u := usage{cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return u
}

// daemon is one live beatbgpd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:PORT
	ready  time.Duration // spawn → first /readyz 200
	stderr *stderrWatch
	exited <-chan error // the one cmd.Wait result
}

// stderrWatch collects a daemon's stderr and announces the bound address
// the moment the daemon prints it.
type stderrWatch struct {
	mu   sync.Mutex
	b    bytes.Buffer
	addr chan string // receives the address once
	sent bool
}

const servingOn = "serving on "

func (w *stderrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.b.Write(p)
	if !w.sent {
		s := w.b.String()
		if i := strings.Index(s, servingOn); i >= 0 {
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				w.sent = true
				w.addr <- strings.TrimSpace(s[i+len(servingOn) : i+j])
			}
		}
	}
	return len(p), nil
}

func (w *stderrWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// startDaemon spawns beatbgpd on an ephemeral loopback port with the
// given flags and waits for its first /readyz 200.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d := &daemon{cmd: cmd, stderr: &stderrWatch{addr: make(chan string, 1)}}
	cmd.Stderr = d.stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	d.exited = exited
	select {
	case d.base = <-d.stderr.addr:
	case err := <-exited:
		return nil, fmt.Errorf("%s exited before listening: %v\n%s", bin, err, d.stderr.String())
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-exited
		return nil, fmt.Errorf("%s did not listen within 60s:\n%s", bin, d.stderr.String())
	}
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(t0)
				return d, nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.stop()
			return nil, fmt.Errorf("%s never became ready:\n%s", bin, d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// spawnForSetup starts the daemon n times, returning every spawn→ready
// time and the last instance, left running. use is called on each of
// the others while it is up (the daemon is fresh: nothing is warm); nil
// just stops them.
func spawnForSetup(bin string, args []string, n int, use func(i int, d *daemon) error) ([]float64, *daemon, error) {
	var ready []float64
	for i := 0; ; i++ {
		d, err := startDaemon(bin, args...)
		if err != nil {
			return nil, nil, err
		}
		ready = append(ready, d.ready.Seconds())
		if i == n-1 {
			return ready, d, nil
		}
		if use != nil {
			err = use(i, d)
		}
		if _, serr := d.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, nil, err
		}
	}
}

// stop drains the daemon (SIGTERM, then SIGKILL after 10 s), waits for
// it to exit, and returns what it cost. A daemon stopped right after it
// became ready can die of the SIGTERM itself — it listens a moment
// before it installs its signal handler — which is as clean a stop as a
// drain with nothing in flight.
func (d *daemon) stop() (usage, error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		err = fmt.Errorf("did not drain within 10s (killed): %v", <-d.exited)
	}
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		err = nil
	}
	if err != nil {
		return usage{}, fmt.Errorf("beatbgpd: %v\n%s", err, d.stderr.String())
	}
	return usageOf(d.cmd.ProcessState), nil
}

// runChild runs a program to completion and returns its stdout, wall
// time and cost; a non-zero exit is an error carrying its stderr.
func runChild(bin string, args ...string) (stdout []byte, wall time.Duration, u usage, err error) {
	cmd := exec.Command(bin, args...)
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	t0 := time.Now()
	err = cmd.Run()
	wall = time.Since(t0)
	if err != nil {
		return nil, wall, usage{}, fmt.Errorf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, se.String())
	}
	return so.Bytes(), wall, usageOf(cmd.ProcessState), nil
}

// bodyCheck holds the SHA-256 of the first 200 body seen for each
// request id and refuses any later response to the same id that
// differs: answers must not depend on the repeat, the caller, or what
// ran concurrently. One bodyCheck spans all repeats of a workload.
type bodyCheck struct {
	seen []atomic.Pointer[[sha256.Size]byte]
}

func newBodyCheck(ids int) *bodyCheck {
	return &bodyCheck{seen: make([]atomic.Pointer[[sha256.Size]byte], ids)}
}

func (b *bodyCheck) verify(r *request, body []byte) bool {
	d := sha256.Sum256(body)
	if b.seen[r.id].CompareAndSwap(nil, &d) {
		return true
	}
	return *b.seen[r.id].Load() == d
}

// digest folds every recorded body hash, keyed by request id, into one
// order-independent SHA-256-sized value: equal across runs of one seed
// exactly when every request got the same bytes.
func (b *bodyCheck) digest() string {
	var acc [sha256.Size]byte
	for id := range b.seen {
		d := b.seen[id].Load()
		if d == nil {
			continue
		}
		h := sha256.Sum256(append([]byte(fmt.Sprintf("%d:", id)), d[:]...))
		for i := range acc {
			acc[i] ^= h[i]
		}
	}
	return hex.EncodeToString(acc[:8])
}
