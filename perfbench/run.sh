#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload patch-read --seed 1 --seconds 20 --trace 0
# Everything the build writes (binary, Go build cache) stays in .bench_build
# at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
