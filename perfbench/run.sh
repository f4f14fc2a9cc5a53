#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, e.g.
#   bash perfbench/run.sh --workload fine_grain --seed 1 --seconds 30 --trace 0
# Run it from the repository root. Everything the build writes stays in
# .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local CGO_ENABLED=0
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
