#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload fleet-columnar-512 --seed 11 --seconds 12 --trace 0
#
# Nothing is read or written outside the checkout: the binary, the Go build
# cache and an (unused) module cache live under .bench_build/, the
# benchmark's own output under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$build/asdf-bench" .)
cd "$root"
exec "$build/asdf-bench" "$@"
