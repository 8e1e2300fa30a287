#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout:
#
#   bash perfbench/run.sh --workload fig5-exact --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
