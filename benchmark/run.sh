#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout. Everything the build and
# the run write stays under .bench_build/ and benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/parbox-benchmark" .)
cd "$root"
exec "$build/parbox-benchmark" "$@"
