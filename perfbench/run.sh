#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#   bash perfbench/run.sh --workload planted-d512 --seed 1 --seconds 20 --trace 0
# Every build and cache file stays inside the checkout, under
# $CARGO_TARGET_DIR when it is set and .bench_build otherwise.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
