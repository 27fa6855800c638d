#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: the one command BENCHMARK.json names.
#
#   bash benchmark/run.sh --workload stencil-scattered --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -aa            # the A/A gate over every workload
#
# Everything the build writes stays under .bench_build/ in the checkout (the
# Go build cache included), everything a run writes under benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod ]]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/: the benchmark builds inside a checkout of the repository" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
# The go command keeps a build cache, temporary files, a module cache and
# telemetry counters under the user's home; point all of them into the checkout.
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOENV=off \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
