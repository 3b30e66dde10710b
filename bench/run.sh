#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it, keeping
# everything it writes (Go build cache, binary, store directories,
# traces) inside the checkout. Arguments are passed to the harness:
#   bash bench/run.sh --workload edge_round --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o .bench_build/drdp-bench ./bench
exec .bench_build/drdp-bench "$@"
