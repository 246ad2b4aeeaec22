#!/usr/bin/env bash
# Builds the benchmark and cmd/traced from this checkout, then runs the
# benchmark with the arguments given. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-day --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build
# (or $CARGO_TARGET_DIR when set): the Go build cache, the binaries,
# and each run's model file and server logs.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
go -C perfbench build -o "$out/traced" repro/cmd/traced
exec "$out/perfbench" --traced "$out/traced" --workdir "$out" "$@"
