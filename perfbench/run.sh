#!/usr/bin/env bash
# Builds the open-loop benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload zipf-hdd --seed 1 --seconds 24 --trace 0
#
# Every build product, Go cache entry and span dump stays under
# .bench_build/perfbench in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
