#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it
# with the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload mine-structural --seed 1 --seconds 25 --trace 0
#
# Every build artifact and cache lands under .bench_build/ so the run
# reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	HOME="$build/home" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local \
	GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
