#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload interactive --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, per-run model
# files and the trace span files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

(
	cd "$root/benchmark"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false \
		go build -o "$build/benchmark" .
)

cd "$root"
exec "$build/benchmark" "$@"
