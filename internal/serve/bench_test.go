package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"beatbgp/internal/core"
)

// The serve benchmarks run against the seed world (Config{Seed: 42}
// at default scale) — the same world beatbgpd serves with no flags —
// built and frozen once per test binary.
var (
	benchOnce sync.Once
	benchW    *core.World
	benchErr  error
)

func benchWorld(b *testing.B) *core.World {
	b.Helper()
	benchOnce.Do(func() {
		s, err := core.NewScenario(core.Config{Seed: 42})
		if err != nil {
			benchErr = err
			return
		}
		benchW, benchErr = s.Freeze()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchW
}

// benchClient is an HTTP client that keeps enough idle connections for
// RunParallel's client goroutines to reuse sockets instead of churning
// through ephemeral ports.
func benchClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 256
	return &http.Client{Transport: tr}
}

func benchGet(client *http.Client, url string) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// BenchmarkServeLatencyQuery measures sustained daemon throughput on
// the latency query: parallel HTTP clients rotating over a warmed set
// of (prefix, instant) queries. One op is one full HTTP round trip, so
// queries/s = 1e9 / ns/op; the custom metric reports it directly (the
// acceptance floor is 1k queries/s on the seed world).
func BenchmarkServeLatencyQuery(b *testing.B) {
	w := benchWorld(b)
	srv := New(w)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + addr.String()
	client := benchClient()

	// Warm a rotation of queries: spread over prefixes and epoch starts,
	// keeping the ones that resolve (clients with no resolvable egress
	// answer 400 and are not throughput). Warming pays each origin
	// chain's first repair outside the timed region, so the benchmark
	// reads steady-state serving cost.
	nEpochs := w.Epochs.Len()
	if nEpochs > 4 {
		nEpochs = 4
	}
	var urls []string
	for i := 0; i < 64; i++ {
		p := (i * 131) % len(w.Topo.Prefixes)
		t := w.Epochs.Epoch(i % nEpochs).Start
		u := fmt.Sprintf("%s/latency?prefix=%d&t=%g", base, p, t)
		code, err := benchGet(client, u)
		if err != nil {
			b.Fatal(err)
		}
		if code == http.StatusOK {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		b.Fatal("no resolvable latency queries on the seed world")
	}

	b.ResetTimer()
	var ctr atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			u := urls[int(ctr.Add(1))%len(urls)]
			code, err := benchGet(client, u)
			if err != nil {
				b.Error(err)
				return
			}
			if code != http.StatusOK {
				b.Errorf("%s: status %d", u, code)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkServeWhatIf measures the scratch-chain path: every op POSTs
// a one-link-down hypothetical, which builds a private repair chain,
// folds the delta, and answers a nested latency query — nothing is
// memoized between ops by design (what-ifs never touch shared caches).
func BenchmarkServeWhatIf(b *testing.B) {
	w := benchWorld(b)
	srv := New(w)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + addr.String()
	client := benchClient()

	// Pick a prefix whose latency query resolves, then a rotation of
	// down-links whose hypotheticals still answer (a cut that strands
	// the prefix legitimately 400s and is not throughput).
	prefix := -1
	for p := 0; p < len(w.Topo.Prefixes); p++ {
		code, err := benchGet(client, fmt.Sprintf("%s/latency?prefix=%d&t=0", base, p))
		if err != nil {
			b.Fatal(err)
		}
		if code == http.StatusOK {
			prefix = p
			break
		}
	}
	if prefix < 0 {
		b.Fatal("no resolvable prefix on the seed world")
	}
	postWhatIf := func(body string) (int, error) {
		resp, err := client.Post(base+"/whatif", "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	var bodies []string
	for link := 0; link < len(w.Topo.Links) && len(bodies) < 32; link++ {
		body := fmt.Sprintf(`{"deltas":[{"Down":[%d]}],"kind":"latency","prefix":%d,"t_min":0}`, link, prefix)
		code, err := postWhatIf(body)
		if err != nil {
			b.Fatal(err)
		}
		if code == http.StatusOK {
			bodies = append(bodies, body)
		}
	}
	if len(bodies) == 0 {
		b.Fatal("no answerable what-if on the seed world")
	}

	b.ResetTimer()
	var ctr atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			code, err := postWhatIf(bodies[int(ctr.Add(1))%len(bodies)])
			if err != nil {
				b.Error(err)
				return
			}
			if code != http.StatusOK {
				b.Errorf("what-if status %d", code)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}
