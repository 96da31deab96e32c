#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash perfbench/run.sh --workload uc1-tiled --seed 1 --seconds 20 --trace 0
#
# The build, its Go caches and the run records stay under .bench_build in
# the checkout. Arguments are passed to the benchmark binary.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOENV=off GOTELEMETRY=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
rev=unknown
if [ -d "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" -git-rev "$rev" "$@"
