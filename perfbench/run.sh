#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload kernel_large --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the go command's own config and
# telemetry files stay under .bench_build in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
