#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build writes (binary, Go build cache) goes
# under .bench_build/, so a run reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/drtm-benchmark" ./benchmark
exec "$build/drtm-benchmark" "$@"
