#!/usr/bin/env bash
# The ThreadSanitizer test subset, run by CI's tsan job: the code that
# shares state across threads — the decision service serving every
# worker from one read-only network, the model watcher, the socket
# server, client and chaos proxy, the const batched forward, the thread
# pool and parallel evaluator, and the rollout pool under the trainer
# and fault-training suites.  libgomp is not TSan-instrumented (DESIGN
# §7), so every nn kernel runs on a one-thread OpenMP team here.
#
# Usage: scripts/tsan-tests.sh [BUILD_DIR]   (default build-tsan)
set -euo pipefail
OMP_NUM_THREADS=1 ctest --test-dir "${1:-build-tsan}" --output-on-failure \
  -j "$(nproc)" \
  -R 'DecisionServiceTest|ModelWatcher|NetServer|NetClient|Chaos|Network|ThreadPool|Parallel|RolloutPool|FaultTraining|Trainer'
