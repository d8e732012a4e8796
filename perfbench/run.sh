#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload dse-random --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary build files and the binary stay under
# .bench_build/ in the checkout, so the first run builds from scratch and
# later runs reuse the cache. The benchmark runs in perfbench/, where traced
# runs write out/trace-<workload>.json.
set -euo pipefail
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
mkdir -p "$GOTMPDIR"
go -C perfbench build -o "$root/.bench_build/perfbench" .
cd perfbench
exec "$root/.bench_build/perfbench" "$@"
