#!/usr/bin/env bash
# BENCHMARK.json's command: builds the harness from source into .bench_build
# at the root of the checkout, then runs it there with the given arguments.
# The Go build cache is kept in the checkout too, so nothing is written
# outside it and only the first run pays for compiling.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/tpusim-bench" .)
cd "$root"
exec "$build/tpusim-bench" "$@"
