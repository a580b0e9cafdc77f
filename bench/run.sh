#!/bin/sh
# Entry point named by BENCHMARK.json: builds the harness from the
# checkout it sits in and runs it with the arguments given. Everything
# the Go toolchain writes stays under .bench_build in that checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go -C "$root/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
