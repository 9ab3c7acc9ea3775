#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root; the arguments pass through, for example
#
#   bash benchmark/run.sh --workload daemon-mix --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and every file a run writes stay under
# .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=
(cd benchmark && go build -o "$out/atpgbench" .)
exec "$out/atpgbench" "$@"
