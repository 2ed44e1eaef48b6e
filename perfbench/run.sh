#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the
# temp snapshot catalog) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
  echo "run.sh: run from the checkout root (perfbench/go.mod not found)" >&2
  exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPATH=$build/gopath GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

# The build runs in its own process group so an interrupt stops every
# compiler process it started, not just the go command.
set -m
(cd "$root/perfbench" && exec go build -o "$build/perfbench" .) &
pid=$!
trap 'kill -TERM -- -$pid 2>/dev/null; wait $pid 2>/dev/null; exit 143' TERM INT
wait $pid
trap - TERM INT
set +m

exec "$build/perfbench" "$@"
