#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 10 --trace 0
#
# Every build artefact, cache and output stays inside the checkout, under
# $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/perfbench"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS= \
	GOPROXY=off GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
cd "$root"
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
