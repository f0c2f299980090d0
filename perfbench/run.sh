#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it. Everything
# the build and the run write (Go build cache, binary, write-ahead logs,
# spans) stays under .bench_build/ in the current directory, which must be
# the root of the repository.
#
#   bash perfbench/run.sh --workload topk-cold --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
