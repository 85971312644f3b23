#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload figures-quick --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays inside the checkout, under .bench_build
# (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .)
# The exec time, read by bash itself (no fork) just before the exec.
export PERFBENCH_EXEC_NS="${EPOCHREALTIME/./}000"
exec "$build/perfbench" "$@"
