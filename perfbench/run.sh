#!/usr/bin/env bash
# Builds the benchmark and the engine from the sources of this checkout,
# then runs one workload. Every build and run artefact stays under
# .bench_build at the checkout root.
#
#   bash perfbench/run.sh --workload cold_crack --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
