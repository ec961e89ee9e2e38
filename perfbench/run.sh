#!/usr/bin/env bash
# Builds the Figure-3 stack benchmark from this checkout's sources and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload meta-pipelined --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, binary, the durable state directories, span dumps) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/xdg" GOTOOLCHAIN=local GOFLAGS=
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
mkdir -p "$TMPDIR"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
