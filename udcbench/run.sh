#!/usr/bin/env bash
# Builds the udcd benchmark from the checkout's source and runs it.  Run from
# the repository root:
#
#   bash udcbench/run.sh --workload cold-fleet --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache included).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$root/udcbench" && go build -o "$out/bin/udcbench" .)
exec "$out/bin/udcbench" "$@"
