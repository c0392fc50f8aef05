#!/usr/bin/env bash
# The driver's entry point: builds the benchmark inside the checkout and
# runs it with the arguments given. Everything the build writes — the
# binary, the Go build cache, the compiler's temporary files — stays under
# .bench_build/ in the checkout, so a run touches nothing outside it.
#
#   bash benchmark/run.sh --workload serve-mix --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="${GOCACHE:-$out/gocache}" GOTMPDIR="$out/tmp"
go build -o "$out/hhbenchmark" ./benchmark
exec "$out/hhbenchmark" "$@"
