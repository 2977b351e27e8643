#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it
# with the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (compiler cache, temporary
# files, the binary, persistence directories, span files) stays in
# .bench_build at the root; nothing is fetched from the network.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
