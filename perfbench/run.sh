#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it.
# Run from the repository root; all arguments go to perfbench, e.g.
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache, the go command's config and
# telemetry files, and CPU profiles stay under .bench_build/ in the
# current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
