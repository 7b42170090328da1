GO ?= go

.PHONY: all build vet fmt-check test bench-check race race-par race-session race-matbgp race-delta race-serve fuzz fuzz-par fuzz-session fuzz-matbgp fuzz-delta stress-par stress-session stress-harness stress-serve stress-golden verify clean

all: vet fmt-check build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail (and list the offenders) if any tracked Go file drifts from gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt drift in:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race: race-par race-session
	$(GO) test -race ./...

# Race-focused pass over the parallel runtime and everything it fans out
# into: the pool itself, the goroutine-confined caches it hammers, the
# parallel fig1 path end to end (efTraces under the determinism sweep),
# two derived scenarios sharing a world's immutable artifacts, the
# campaign runner (concurrent cells and abandoned timed-out attempts on
# one scenario), and the whole registry as one campaign.
race-par:
	$(GO) vet ./internal/par/ ./internal/core/
	$(GO) test -race ./internal/par/ ./internal/cable/ ./internal/netsim/ ./internal/bgp/ ./internal/workload/
	$(GO) test -race -run 'TestConcurrentDerivedScenarios|TestDeriveArtifactReuse' ./internal/core/
	$(GO) test -race ./internal/harness/
	$(GO) test -race -run 'TestRenderDeterministicAcrossWorkers|TestCampaignMatchesRunAlone' .

# Race-focused pass over the event-driven session layer and the core
# experiments that replay it inside parallel sweeps (xdetect fans one
# session replay per timer setting across par workers).
race-session:
	$(GO) test -race ./internal/session/
	$(GO) test -race -run 'TestDetectionStudyShape|TestFlapStormShape|TestSessionDifferentialMatchesClosedForm|TestSessionStudyDeterminism' ./internal/core/

# Race-focused pass over the batch route engine: the class-column cache is
# shared across oracle workers (PrimeOrigins fans ToOrigin misses over the
# pool), and every Graph's pooled column state is handed between the
# goroutines building columns on it, so the differential suite runs under
# the detector, plus the oracle's annotation paths and the cross-engine
# gate (the experiments rendered on the recursive reference engine must
# match matbgp byte for byte).
race-matbgp:
	$(GO) test -race ./internal/matbgp/
	$(GO) test -race -run 'TestPrimeOrigins' ./internal/bgp/
	$(GO) test -race -run 'TestReferenceEngineRendersIdentically' ./internal/core/

# Race-focused pass over the incremental-repair stack: the delta
# vocabulary, the matbgp repair differential suite (repaired columns vs
# full rebuild), the one epoch repair chain (bgp.EpochChain: walks vs
# rebuilds, cancel-poison-rebuild, concurrent callers) and the cdn views
# that bind it, and the core epoch acceptance gate (xfaults/xflap
# sequences bit-identical to rebuilds at workers 1/2/8).
race-delta:
	$(GO) test -race ./internal/delta/
	$(GO) test -race -run 'TestRepair|TestRibRepairer|TestStartRepair' ./internal/matbgp/
	$(GO) test -race -run 'TestEpochChain' ./internal/bgp/
	$(GO) test -race -run 'TestEpoch' ./internal/cdn/
	$(GO) test -race -run 'TestEpochRepairBitIdenticalAcrossWorkers|TestRepairWalkerMatchesRebuild|TestFaultEpochsMemoized' ./internal/core/

# Race-focused pass over the serving layer and the concurrency seams it
# leans on: parallel mixed queries against a live beatbgpd listener must
# stay byte-identical to single-threaded library answers, restart on the
# same world key must be transparent, drain must complete in-flight
# requests — all under the detector, plus the epoch-chain and matbgp
# singleflight paths the daemon's queries fan into.
race-serve:
	$(GO) test -race -run 'TestServe' ./internal/serve/
	$(GO) test -race -run 'TestEpochChainConcurrent' ./internal/bgp/
	$(GO) test -race -run 'TestEpochConcurrentQueries' ./internal/cdn/
	$(GO) test -race -run 'TestEngineClassColumnSingleflight|TestRepairInterleavedChains' ./internal/matbgp/

# Short fuzz pass over Config validation; raise FUZZTIME for a longer run.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzConfigValidate -fuzztime=$(FUZZTIME) ./internal/core/

# Fuzz the parallel map against the serial oracle (randomized inputs,
# worker counts, and error sites must reproduce serial results exactly).
fuzz-par:
	$(GO) test -run=^$$ -fuzz=FuzzMapVsSerial -fuzztime=$(FUZZTIME) ./internal/par/

# Fuzz the BGP/BFD session FSMs: random event sequences must never reach
# an invalid state, never panic, and never enter Established without the
# full handshake.
fuzz-session:
	$(GO) test -run=^$$ -fuzz=FuzzFSMTransitions -fuzztime=$(FUZZTIME) ./internal/session/

# Differential fuzz of the batch route engine against the recursive
# reference: fuzzer-chosen announcement sets and failed links over small
# worlds must produce bit-identical routes, offers, and error text.
fuzz-matbgp:
	$(GO) test -run=^$$ -fuzz=FuzzMatbgpVsOracle -fuzztime=$(FUZZTIME) ./internal/matbgp/

# Differential fuzz of incremental route repair: random delta sequences
# (link downs/ups, inverted walks) applied to a repair chain must leave
# every column bit-identical to a fresh all-pairs rebuild at the same
# down set.
fuzz-delta:
	$(GO) test -run=^$$ -fuzz=FuzzDeltaRepair -fuzztime=$(FUZZTIME) ./internal/matbgp/

# Deterministic stress: repeated randomized worker-count sweeps checked
# against the serial oracle, with the race detector watching.
STRESSCOUNT ?= 5
stress-par:
	$(GO) test -race -run 'TestStressRandomWorkersVsSerialOracle' -count=$(STRESSCOUNT) ./internal/par/

# Session determinism stress: the flap-storm and detection experiments
# rendered at workers 1 vs 8 (and with BFD on) must be byte-identical,
# with the race detector watching the parallel replay.
stress-session:
	STRESS_SESSION=1 $(GO) test -race -run 'TestStressSessionAcrossWorkers' -v -timeout 10m .

# Crash-safety stress: SIGKILL a live campaign the moment its first
# checkpoint lands, resume it, and assert the resumed stdout is
# byte-identical to an uninterrupted run (zero re-runs per the manifest).
stress-harness:
	STRESS_HARNESS=1 $(GO) test -run 'TestStressKillResume' -v -timeout 10m ./cmd/beatbgp/

# Campaign goldens beyond tier-1: the full default campaign at seed 7,
# and at seed 42 on one worker, must print exactly the bytes in
# testdata/golden (tier-1 checks seed 42 at the default worker count).
stress-golden:
	STRESS_GOLDEN=1 $(GO) test -run 'TestStressCampaignGolden' -v -timeout 10m .

# Overload soak: an open-loop flash crowd (Poisson arrivals, 5x burst)
# from a small HTTP driver inside the test drives a live listener far
# past its admission capacity while chaos stalls and errors hit the
# repair chains, with the race detector watching. Passing means every
# refusal was typed (429/503/504, no transport errors), the
# admitted-query p99 stayed bounded by the serving deadline, fallback
# answers were marked degraded, and the daemon returned to its pre-soak
# goroutine count.
stress-serve:
	STRESS_SERVE=1 $(GO) test -race -run 'TestStressServeOverload' -v -timeout 10m ./internal/serve/

# The benchmark is its own module (bench/), so the tier-1 suite cannot
# see it: vet and test it here, so a refactor that breaks the internal/
# surface it pins fails locally.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# The full pre-merge gate: formatting, static checks, build, the whole
# test suite, the benchmark module's own checks, the race-focused
# passes, the route engine's oracle and delta-repair differential fuzz,
# the race-enabled overload soak and the extra campaign goldens, in
# fail-fast order.
verify: fmt-check vet build test bench-check race-par race-session race-matbgp race-delta race-serve fuzz-matbgp fuzz-delta stress-serve stress-golden

clean:
	$(GO) clean ./...
