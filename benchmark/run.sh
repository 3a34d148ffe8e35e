#!/usr/bin/env bash
# The command BENCHMARK.json names: build the runner from source into the
# checkout's .bench_build directory, then replace this shell with it, so
# no process outlives the run. Arguments pass through unchanged.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$PWD/../.bench_build"
mkdir -p "$build"
go build -o "$build/npbbench" .
exec "$build/npbbench" "$@"
