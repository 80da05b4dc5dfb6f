#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout's root with the arguments given. Everything the build and the
# run write — Go's build cache included — stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/mcabench" .
exec "$build/mcabench" "$@"
