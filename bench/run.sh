#!/usr/bin/env bash
# Builds mosperf from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload sweep-walk --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays in the checkout: the Go
# build cache, the binaries, and the workloads' working files go under
# .bench_build/, traced runs' spans under bench/out/.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (no go.mod or bench/go.mod here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd bench && go build -o "$build/bin/mosperf" ./cmd/mosperf)
exec "$build/bin/mosperf" "$@"
