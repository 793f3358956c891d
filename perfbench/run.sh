#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload server --seed 1 --seconds 30 --trace 0
#
# Every build product, the Go build cache and the traced runs' spans and
# profiles stay under .bench_build/ (or $CARGO_TARGET_DIR when set) in
# the checkout; nothing is fetched over the network.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
export PERFBENCH_BUILD=$build

(cd "$root/perfbench" && go build -o "$build/perfbench/bin/perfbench" .)
exec "$build/perfbench/bin/perfbench" "$@"
