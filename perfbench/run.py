#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
dras library and the perfbench binary (Release) into
.bench_build/perfbench; later calls only rebuild what changed.  The thread
layout of the workload comes from perfbench/workloads.json: its OpenMP
team size is set in the environment of the perfbench process, its worker
count is an argument, and a layout with a `cpus` count pins the process to
that many CPUs.  Its last line of standard output is the JSON result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no dras sources next to {HERE.name}/ (expected src/CMakeLists.txt)")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    command = ["cmake", "--build", str(BUILD), "--target", "perfbench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    catalogue = json.loads((HERE / "workloads.json").read_text())
    layout = catalogue["workloads"].get(args.workload)
    if layout is None:
        fail(f"unknown workload {args.workload!r}; known: "
             + ", ".join(catalogue["workloads"]))
    threads = layout["threads"]
    binary = build()

    scratch = ROOT / ".bench_build" / "scratch" / args.workload
    spans = ROOT / ".bench_build" / "spans" / f"{args.workload}.csv"
    command = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tail-percentile", str(layout["tail_percentile"]),
        "--workers", str(threads["workers"]),
        "--scratch", os.path.relpath(scratch, ROOT),
    ]
    if args.trace:
        command += ["--spans-out", os.path.relpath(spans, ROOT)]
    env = dict(os.environ, OMP_NUM_THREADS=str(threads["omp_team"]))
    pin = None
    if "cpus" in threads:
        cpus = sorted(os.sched_getaffinity(0))[:threads["cpus"]]
        pin = lambda: os.sched_setaffinity(0, cpus)  # noqa: E731
    with subprocess.Popen(command, cwd=ROOT, env=env,
                          preexec_fn=pin) as bench:
        try:
            code = bench.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            bench.kill()
            bench.wait()
            fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
