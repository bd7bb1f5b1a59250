#!/usr/bin/env bash
# Builds the benchmark from the source of this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mesh --seed 1 --seconds 30 --trace 0
#
# Every build output (compiler cache, binary) and every file the benchmark
# writes stays under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --dir "$out" "$@"
