#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.  Run from
# the repository root; every argument goes to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache, Go's temporary files and the
# benchmark's data dirs all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@" --workdir "$out"
