#!/usr/bin/env bash
# Builds the rt end-to-end benchmark from source and runs it.
#
# Run from the repository root:
#
#   bash rtperf/run.sh --workload callpath --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache and the binary) goes
# under .bench_build/ in the current directory. The benchmark is its own
# module, so the repository's go.work is switched off for the build.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOWORK=off
export GOTOOLCHAIN=local
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"

# Build output goes to stderr: the last line of stdout is the result.
(cd "$src" && go build -o "$out/rtperf" .) >&2
exec "$out/rtperf" "$@"
