#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
# Run from the repository root. Every build artifact (binary, Go build
# cache, span files, journals) lands under .bench_build/ in the current
# directory, so building and running write nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
