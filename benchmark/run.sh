#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload http_fleet --seed 1 --seconds 10 --trace 0
#
# Builds the benchmark from source into .bench_build/ (Go build cache
# and temp files included, so nothing is written outside the checkout)
# and runs it with the arguments it was given.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" TMPDIR="$out/tmp" GOTOOLCHAIN=local

# An up-to-date binary is left alone, so only the first run pays.
go build -o "$out/angstrom-benchmark" ./benchmark
exec "$out/angstrom-benchmark" "$@"
