#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload sweep_quick --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (the Go build
# cache, temporary files, the binary) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/home"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/home/mod" \
	GOPATH="$out/home/go" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	XDG_CACHE_HOME="$out/home" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
