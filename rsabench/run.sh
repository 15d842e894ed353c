#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Usage (from the repository root):
#   bash rsabench/run.sh --workload l7-steady --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache, durable stores and trace files all live
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C rsabench build -o "$build/rsabench" .
exec "$build/rsabench" --out "$build" "$@"
