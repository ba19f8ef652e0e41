#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it.
#
#   bash perfbench/run.sh --workload serve-wire --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady --workload sim --runs 10 --seconds 10
#
# Everything the build and the run write (Go build cache, binary, WAL
# data directories) stays under the build directory: $CARGO_TARGET_DIR
# when set, else .bench_build, relative to the checkout root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

exec "$build/perfbench" "$@" --root "$root" --build "$build"
