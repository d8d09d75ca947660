#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it:
#
#   bash perfbench/run.sh --workload link-overload --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything the build writes (Go build
# cache, binary, trace output) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the root of the checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The program's backend and queue follow these variables; the benchmark pins
# the program defaults.
unset REPRO_BACKEND REPRO_QUEUE

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
