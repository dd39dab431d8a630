#!/usr/bin/env bash
# Builds perfbench from the checkout's source and runs it; every argument
# passes through. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-scale --seed 2007 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build
# inside the checkout, and the build never reaches the network.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# VCS stamping records the commit when the checkout is a repository; a
# VCS tool that cannot stamp must not stop the build.
go -C perfbench build -o "$build/perfbench" . ||
	go -C perfbench build -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" "$@"
