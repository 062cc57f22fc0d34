#!/usr/bin/env bash
# Builds servebench from the sources of the checkout it is run in, then
# runs it with the given flags. Run it from the repository root:
#
#   bash servebench/run.sh --workload run-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C servebench build -o "$build/servebench" .
exec "$build/servebench" -spans "$build/spans" "$@"
