#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it; every argument passes through to the program (see main.go). Run from
# the repository root:
#
#   bash perfbench/run.sh --workload fabric-seq --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and span logs all stay under
# .bench_build/perfbench in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/trace" "$@"
