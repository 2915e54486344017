#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload paper-bugs --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at the
# root: the Go build cache, the binary, traces and result files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

# Keep the toolchain offline and its caches and config inside the checkout.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
