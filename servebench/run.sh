#!/usr/bin/env bash
# Builds the serve benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload paper-sim --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, per-run state directories and trace
# files all stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" --work "$out" "$@"
