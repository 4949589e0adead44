#!/usr/bin/env bash
# Builds the service benchmark from source and runs it. Run it from the
# repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload hot-eval --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, the stores and the span files all live
# under .bench_build in the current directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/perfbench-work" "$@"
