#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes
# stays inside the checkout: the binary and the Go build cache under
# .bench_build/ at the root, records and span files under bench/out/.
#
#   bench/run.sh                                        all workloads, both passes
#   bench/run.sh --workload wide_fleet --seed 3 --seconds 20 --trace 0
#   bench/run.sh -selfcheck
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"

# The toolchain's own files (build cache, module cache, telemetry counters
# under the user config directory) go under .bench_build/ too.
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
commit=$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)

cd "$here"
go build -o "$build/bench" .
exec "$build/bench" -commit "$commit" "$@"
