#!/usr/bin/env bash
# Tier-1 verification: the checks every PR must keep green.
#
#   1. Release build + full test suite (the ROADMAP.md tier-1 line).
#   2. ASan+UBSan build (DRAS_SANITIZE=ON) running the telemetry,
#      simulator, parallel-execution, nn-kernel/DQL, gradient-deposit,
#      policy-head and serving-head tests — the subsystems with lock-free concurrency,
#      thread pools, raw-fd I/O and vector loads over padded lanes,
#      where sanitizers earn their keep.
#
# Usage: scripts/tier1.sh [--skip-asan]
set -euo pipefail
cd "$(dirname "$0")/.."

skip_asan=0
[[ "${1:-}" == "--skip-asan" ]] && skip_asan=1

echo "=== tier-1: release build + full ctest ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

if [[ "$skip_asan" == 1 ]]; then
  echo "=== tier-1: ASan stage skipped ==="
  exit 0
fi

echo "=== tier-1: ASan+UBSan build + obs/sim/exec/nn/head tests ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DDRAS_SANITIZE=ON
cmake --build build-asan -j "$(nproc)" --target dras_tests
ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
  -R 'Obs|EventTracer|DefaultTracer|Sink|Simulator|Json|ThreadPool|Parallel|Clone|TaskSeed|Wire|Socket|NetServer|NetClient|Chaos|Gemv|GemmBatch|Network|GradAccum|DQLPolicy|PolicyHead|PGPolicy\.Greedy|DecisionServiceTest'

echo "=== tier-1: all green ==="
