#!/usr/bin/env bash
# Entry point of BENCHMARK.json and of a developer alike: build the bench
# module (bench/go.mod) against the checkout this is started in and run
# it with the arguments given. Everything the toolchain writes (build
# cache, temporary files, binaries) stays inside the checkout, under
# .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/demoserver ]; then
	echo "bench/run.sh: run from the repository root (no go.mod or cmd/demoserver here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOENV=off
export GOTOOLCHAIN=local

go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
