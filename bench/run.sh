#!/bin/bash
# The benchmark's command (BENCHMARK.json): builds ./bench and runs it with
# the arguments given, keeping the Go build cache and every temporary file
# inside the checkout (.bench_build/). Run from the repository root.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
