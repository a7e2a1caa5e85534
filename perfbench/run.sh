#!/usr/bin/env bash
# Builds the benchmark and cmd/pramd from the checkout it is run in, then
# runs the benchmark with the given arguments. Run it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload paper-kernel --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in that root,
# including the Go build cache.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/pramd" ./cmd/pramd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --pramd "$out/pramd" --work "$out/work" "$@"
