#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout as `bash benchmark/run.sh --workload NAME --seed N --seconds S
# --trace 0|1`; everything it writes (build cache, binary, CPU profiles) goes
# under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$src" && go build -o "$out/specdb-benchmark" .)
exec "$out/specdb-benchmark" "$@"
