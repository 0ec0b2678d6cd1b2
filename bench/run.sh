#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the Go toolchain writes (build cache,
# module cache, telemetry counters, the binary) goes under .bench_build
# at the root of the checkout, which .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOFLAGS=-buildvcs=auto go build -o "$build/bench" .
)
exec "$build/bench" "$@"
