#!/usr/bin/env bash
# Builds the benchmark program from source into .bench_build/ (inside the
# checkout: build cache, module path and the go command's own telemetry
# counters included) and runs it with the given arguments from the repository
# root. BENCHMARK.json names this script as its command.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/arqperf" .
cd "$root"
exec "$build/arqperf" "$@"
