#!/usr/bin/env bash
# Builds the benchmark driver from the checkout it is run in and runs it
# with the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload pv-noauth-mem --seed 1 --seconds 35 --trace 0
# Build cache, temporary files, the go command's own config and telemetry
# files, and the binary stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
