#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments; this is BENCHMARK.json's command. Everything the Go
# toolchain writes (build cache, binary) stays under .bench_build/ at the
# root of the checkout, so a run reads and writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local

# The benchmark is its own module; its go.mod points at the program one
# directory up, so the program is compiled from the checkout's source.
(cd "$root/benchmark" && go build -o "$build/h2benchmark" .)

cd "$root"
exec "$build/h2benchmark" "$@"
