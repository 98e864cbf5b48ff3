#!/usr/bin/env bash
# Builds the measured-downtime benchmark from source and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload kv-vanilla --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare -a <dir> -b <dir>
#
# Everything the build leaves behind (Go build cache, temporary files, the
# binary, result and span files) lands in .bench_build under the current
# directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOTELEMETRY=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
