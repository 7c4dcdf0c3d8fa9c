#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and runs
# it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
#
# Every build and scratch file stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
