#!/usr/bin/env bash
# Builds fcbench (Release) into build-bench/ at the repository root and
# runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload bulk_and3 --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line on stdout is fcbench's
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 2)
cmake -S benchmark -B build-bench -DCMAKE_BUILD_TYPE=Release >&2
cmake --build build-bench -j "$jobs" --target fcbench >&2
exec build-bench/fcbench "$@"
