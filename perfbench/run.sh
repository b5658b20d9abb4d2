#!/usr/bin/env bash
# Builds the reprod server and the benchmark program from the checkout in the
# current directory, then runs one benchmark workload against them:
#
#   bash perfbench/run.sh --workload mine-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, data
# directories) stays under .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

go build -o "$build/reprod" ./cmd/reprod 1>&2
(cd perfbench && go build -o "$build/perfbench" .) 1>&2
exec "$build/perfbench" -reprod "$build/reprod" -workdir "$build" "$@"
