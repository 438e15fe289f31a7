#!/usr/bin/env bash
# The sanitized test subset, run by scripts/tier1.sh and CI's asan job:
# telemetry, simulator, parallel execution, checkpoint and fs I/O,
# sockets and serving, the nn kernels, both policy heads and the
# rollout pool with its fault-training suite — the code with lock-free
# concurrency, thread pools, raw-fd I/O and vector loads over padded
# lanes, where sanitizers earn their keep.
#
# Usage: scripts/asan-tests.sh [BUILD_DIR]   (default build-asan)
set -euo pipefail
ctest --test-dir "${1:-build-asan}" --output-on-failure -j "$(nproc)" \
  -R 'Obs|EventTracer|DefaultTracer|Sink|Simulator|Json|ThreadPool|Parallel|Clone|TaskSeed|Checkpoint|Manager|Resume|BinaryRoundTrip|Fs|Wire|Socket|NetServer|NetClient|Chaos|Gemv|GemmBatch|Network|GradAccum|DQLPolicy|PolicyHead|PGPolicy\.Greedy|DecisionServiceTest|RolloutPool|FaultTraining'
