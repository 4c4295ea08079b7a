#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it; every argument is passed through:
#
#   bash perfbench/run.sh --workload predict-cold --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# span dumps of traced runs all live under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTMPDIR="$out/tmp"

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
