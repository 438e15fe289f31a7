#!/usr/bin/env bash
# Tier-1 verification: the checks every PR must keep green.
#
#   1. Release build + full test suite (the ROADMAP.md tier-1 line).
#   2. ASan+UBSan build (DRAS_SANITIZE=ON) running the sanitized subset
#      of scripts/asan-tests.sh, the same subset CI's asan job runs.
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

echo "=== tier-1: ASan+UBSan build + sanitized subset ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DDRAS_SANITIZE=ON
cmake --build build-asan -j "$(nproc)" --target dras_tests
scripts/asan-tests.sh build-asan

echo "=== tier-1: all green ==="
