#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
# Run from the repository root, for example:
#
#   bash benchmark/run.sh --workload verify-cold --seed 1 --seconds 20 --trace 0
#
# All build state (Go build cache, temporary files, the binary) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTELEMETRY=off
export GOPROXY=off GOTOOLCHAIN=local

(cd "$root/benchmark" && go build -o "$build/deflection-benchmark" .)
exec "$build/deflection-benchmark" "$@"
