#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: build the benchmark from the checkout
# it is run in and hand it the arguments. Everything the Go toolchain writes
# — build cache, temporaries, module and telemetry state — is kept inside
# the checkout's .bench_build, so a run reads and writes nothing outside it.
# The first run of a checkout compiles the standard library into that cache
# (about 25 s on two cores); later runs are up-to-date checks.
#
#   bash benchmark/run.sh --workload live_feedback_wal --seed 3 --seconds 15 --trace 0
#
# `go run ./benchmark` does the same with your own Go caches.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/aheftd ]; then
  echo "benchmark: run from the root of a checkout (no go.mod or cmd/aheftd here)" >&2
  exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
