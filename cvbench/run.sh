#!/usr/bin/env bash
# Builds the co-verification benchmark from source and runs it.
#
#   bash cvbench/run.sh --workload e1_cosim --seed 1 --seconds 20 --trace 0
#   bash cvbench/run.sh --workload all --seed 1 --seconds 5
#
# Run it from the repository root. The Go build cache, temporary files, the
# tool's config directory and the binary all stay under .bench_build/ in
# that root, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$root/cvbench" && go build -o "$out/cvbench" .)
exec "$out/cvbench" "$@"
