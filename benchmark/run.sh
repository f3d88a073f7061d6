#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash benchmark/run.sh --workload paper-ladder --seed 1 --seconds 10 --trace 0
#
# Everything the Go tool writes (build cache, temporary files, its
# configuration and module directories) and the binary stay in
# .bench_build/ at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$out/casynbench" .)
exec "$out/casynbench" "$@"
