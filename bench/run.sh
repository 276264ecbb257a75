#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
# Usage (from the repository root): bash bench/run.sh [sfbench flags]
#
# The build is hermetic and stays inside the checkout: the Go build cache,
# GOPATH and Go's config directory live under .bench_build/, modules come
# only from the local replace in bench/go.mod, and no toolchain or module
# is ever downloaded.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go -C "$root/bench" build -o "$build/sfbench" ./cmd/sfbench
exec "$build/sfbench" "$@"
