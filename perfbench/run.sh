#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#	bash perfbench/run.sh --workload udp-n4 --seed 1 --seconds 36 --trace 0
#
# Run it from the repository root. Everything the build writes (binary,
# Go build cache, temporaries) stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
