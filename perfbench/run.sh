#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload ycsb-ba --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, result records,
# spans, traces, profiles) stays under the build directory,
# $CARGO_TARGET_DIR if set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
if [ -z "${PERFBENCH_GIT_REV:-}" ] && [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	PERFBENCH_GIT_REV=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	export PERFBENCH_GIT_REV
fi

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
