#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and runs
# it from this directory, passing every argument through. Everything the build
# writes (Go's build cache included) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/casvm-bench" .
exec "$build/casvm-bench" "$@"
