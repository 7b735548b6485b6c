#!/usr/bin/env bash
# Builds the request-path benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash reqbench/run.sh --workload serve_mix --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write lands under .bench_build/ in
# the current directory: the Go build cache, the binary and the
# benchmark's scratch cache directories.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/reqbench"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/reqbench" .) >&2
exec "$out/reqbench" "$@"
