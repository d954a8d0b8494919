#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#	bash benchmark/run.sh --workload events_hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# trace-<workload>.json, results.json) lands in .bench_build/ at the root
# of the checkout, nothing outside it.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -C "$here" -o "$build/nvbench" .
exec "$build/nvbench" -out "$build" "$@"
