#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing all
# arguments through. Run from the repository root:
#
#   bash perfbench/run.sh --workload hardset --seed 1 --seconds 20 --trace 0
#
# Build outputs and Go's caches stay inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
