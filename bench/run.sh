#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout: bash bench/run.sh --workload pipe-local --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — Go's build cache, its temp
# files, the binary, the cluster workload's unix sockets — goes under
# .bench_build/ in the checkout. Only the Go toolchain itself is read
# from outside it. Arguments are passed on to the benchmark (see
# README.md, or -help).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
# No network, no toolchain download, no settings inherited from the caller.
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
# The checkout need not be a git repository, and stamping must not fail
# the build where it is one that git refuses to read.
go build -C bench -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/bench" .
exec "$build/bench" "$@"
