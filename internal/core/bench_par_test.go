package core

import (
	"context"
	"fmt"
	"testing"
)

// benchConfig is a laptop-scale world kept small enough that a full
// Edge-Fabric replay fits in a benchmark iteration.
func benchConfig(workers int) Config {
	cfg := Config{Seed: 42, Workers: workers}
	cfg.Topology.EyeballsPerRegion = 6
	cfg.Workload.Days = 2
	return cfg
}

// benchEFReplay measures the fig1 hot path — per-origin route propagation
// plus the full per-prefix session replay — at a fixed worker count. The
// lazy trace cache is dropped every iteration so each one pays the whole
// sweep.
func benchEFReplay(b *testing.B, workers int) {
	s, err := NewScenario(benchConfig(workers))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.traces = nil
		if _, err := s.efTraces(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEFTraceReplay is the parallel runtime's speedup probe: the
// same deterministic replay at 1, 2, 4 and 8 workers. On a single-core
// host the variants collapse to serial throughput (modulo pool overhead);
// compare ns/op across sub-benchmarks on a multi-core machine to see the
// scaling. Output is byte-identical across all of them either way.
func BenchmarkEFTraceReplay(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchEFReplay(b, workers)
		})
	}
}

// BenchmarkSiteDensitySweep runs the xsites study end to end — the
// heaviest derived-scenario sweep (four CDN densities, each a full
// anycast evaluation). With the staged build graph every density is a
// CDN-only Derive: the topology, provider WAN, and DNS mapping are built
// once on the base scenario and shared across the sweep.
func BenchmarkSiteDensitySweep(b *testing.B) {
	s, err := NewScenario(benchConfig(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := siteDensityStudy(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3AnycastSweep exercises the other parallel tentpole wire:
// the per-prefix anycast-catchment sweep behind Figure 3.
func BenchmarkFig3AnycastSweep(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s, err := NewScenario(benchConfig(workers))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.efTraces(); err != nil { // warm shared caches off the clock
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := figure3(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
