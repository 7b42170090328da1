GO ?= go

.PHONY: all build vet fmt-check test examples bench-check race fuzz fuzz-par fuzz-session fuzz-matbgp fuzz-delta fuzz-faults stress-par stress-session stress-harness stress-serve stress-golden knobs verify clean

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

# The whole suite under the race detector. It includes a race-built
# default campaign (TestCampaignGolden runs RunCampaign in-process), the
# parallel runtime, session replays, the matbgp differential and repair
# suites, the epoch chains and the serving layer.
race:
	$(GO) test -race -timeout 20m ./...

# Short fuzz pass over Config validation; raise FUZZTIME for a longer run.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzConfigValidate -fuzztime=$(FUZZTIME) ./internal/core/

# Fuzz the parallel map against the serial oracle (randomized inputs,
# worker counts, and error sites must reproduce serial results exactly).
fuzz-par:
	$(GO) test -run=^$$ -fuzz=FuzzMapVsSerial -fuzztime=$(FUZZTIME) ./internal/par/

# Fuzz the BGP session FSM: random event sequences must never reach an
# invalid state, never panic, and never enter Established without the
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

# Differential fuzz of the epoch compiler: fuzzer-chosen LinkDown
# schedules on a small topology, with BFD on or off, are replayed through
# the session layer and compiled by History.Deltas; the sequence must
# answer "is link l down at t" exactly as a scan of the physical and
# control-plane windows does, at every boundary and midpoint.
fuzz-faults:
	$(GO) test -run=^$$ -fuzz=FuzzReplayDeltas -fuzztime=$(FUZZTIME) ./internal/session/

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

# Dead-knob sweep: every numeric, bool and string leaf of core.Config
# (but the seeds and Workers) is set to each value of a fixed ladder on
# a world derived from seed 42, and the full campaign must move by at
# least one byte for some accepted value, unless the leaf is on the
# test's short allowlist of fields an experiment sets itself.
knobs:
	KNOBS=1 $(GO) test -run 'TestNoDeadKnobs' -v -timeout 20m .

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

# Run every examples/ main and fail on a non-zero exit: go build only
# proves they compile against the internal/ surface they call.
examples:
	@for d in examples/*/; do echo "run $$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# The benchmark is its own module (bench/), so the tier-1 suite cannot
# see it: vet and test it here, so a refactor that breaks the internal/
# surface it pins fails locally.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# The full pre-merge gate: formatting, static checks, build, the whole
# test suite, the benchmark module's own checks, the whole suite under
# the race detector, every example, the route engine's oracle and
# delta-repair differential fuzz, the session FSM fuzz, the epoch
# compiler's differential fuzz, the session layer's workers-1-vs-8
# stress, the race-enabled overload soak, the extra campaign goldens and
# the dead-knob sweep, in fail-fast order.
verify: fmt-check vet build test bench-check race examples fuzz-matbgp fuzz-delta fuzz-session fuzz-faults stress-session stress-serve stress-golden knobs

clean:
	$(GO) clean ./...
