#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hotspot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write goes under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	go -C "$root/perfbench" build -o "$out/perfbench" .

exec "$out/perfbench" "$@"
