#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                  # all four workloads, one child each
#   bash bench/run.sh compare P1.out ... -- C1.out ...
#
# Everything the build and the run write (Go build cache, binary, scratch
# stores, traces) goes under .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root (go.mod, internal/ and bench/ not found here)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
