#!/usr/bin/env bash
# Builds the segdb benchmark from this checkout's sources into
# .bench_build/ and runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload paper-study --seed 1 --seconds 10 --trace 0
#
# The Go build cache lives under .bench_build/ as well, so the benchmark
# reads and writes nothing outside the checkout besides the toolchain.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
