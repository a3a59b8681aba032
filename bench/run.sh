#!/bin/bash
# The command of BENCHMARK.json: build the benchmark into the checkout, then
# run it with the driver's arguments. Everything the build writes, Go's build
# cache included, stays in .bench_build/ at the root of the checkout.
set -eu
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/go-cache"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
