#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark driver from this
# directory with every Go cache, and the go command's own settings and
# counters, kept under bench/out (so a run reads and writes only inside
# its checkout), then hands it the arguments. The driver builds the
# programs under test from the checkout's source.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -C "$here" -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
