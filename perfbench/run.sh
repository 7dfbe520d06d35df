#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload kv-barrier --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and tool state stay in .bench_build at
# the checkout root; traced runs write into .bench_out. The last line of
# standard output is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
