#!/usr/bin/env python3
"""Steadiness evidence: interleaved repeated runs of every workload.

    python3 perfbench/steadiness.py [--seeds 10] [--first-seed 101]
        [--workloads a,b] [--trace 0|1] [--out perfbench/steadiness]
        [--baseline earlier.json]

Run from the repository root.  Seeds are the outer loop and workloads the
inner one, so slow drift of a shared machine lands on every workload
alike.  For each metric the report gives the median, the quartiles of
statistics.quantiles(values, n=4) and the spread (Q3 - Q1) / median, next
to the metric's bound from BENCHMARK.json.  Writes <out>.json (every run,
with its wall time and the host's steal time from /proc/stat) and <out>.md
(the table).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def steal_s():
    """CPU seconds the host withheld from this VM's runnable vCPUs."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def run(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    start, steal = time.monotonic(), steal_s()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall_s, steal = time.monotonic() - start, steal_s() - steal
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return {"wall_s": wall_s, "steal_s": steal, **json.loads(lines[-1])}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=str(HERE / "steadiness"))
    parser.add_argument("--baseline", type=Path,
                        help="an earlier <out>.json: add each median's "
                             "change against it, signed so + is worse")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower"
                       for m in bench["end_to_end"] + bench["per_layer"]}
    baseline = {}
    if args.baseline:
        for r in json.loads(args.baseline.read_text())["summary"]:
            baseline[(r["workload"], r["metric"])] = r["median"]

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in workloads:
            result = run(workload, seed, args.seconds, args.trace)
            runs.append({"workload": workload, "seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)

    rows = []
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        for name in sorted(mine[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in mine]
            q1, q2, q3, s = spread(values)
            row = {"workload": workload, "metric": name,
                   "unit": mine[0]["metrics"][name]["unit"],
                   "median": q2, "q1": q1, "q3": q3, "spread": s,
                   "bound": bounds.get(name), "runs": len(values)}
            before = baseline.get((workload, name))
            if before:
                change = (q2 - before) / before
                row["worse_than_baseline"] = (
                    change if lower_is_better.get(name, True) else -change)
            rows.append(row)

    out = Path(args.out)
    out.with_suffix(".json").write_text(
        json.dumps({"seconds": args.seconds, "trace": args.trace,
                    "runs": runs, "summary": rows}, indent=1) + "\n")
    lines = [
        f"Interleaved runs: seeds {args.first_seed}.."
        f"{args.first_seed + args.seeds - 1}, {args.seconds} s each, "
        f"trace {args.trace}.  spread = (Q3 - Q1) / median.",
        "",
        "| workload | metric | unit | median | Q1 | Q3 | spread | bound |"
        + (" worse than baseline |" if baseline else ""),
        "|---|---|---|---|---|---|---|---|" + ("---|" if baseline else ""),
    ]
    for r in rows:
        bound = "" if r["bound"] is None else f"{r['bound']:g}"
        flag = " **>0.1**" if r["spread"] > 0.1 else ""
        line = (f"| {r['workload']} | {r['metric']} | {r['unit']} | "
                f"{r['median']:.6g} | {r['q1']:.6g} | {r['q3']:.6g} | "
                f"{r['spread']:.3f}{flag} | {bound} |")
        if baseline:
            worse = r.get("worse_than_baseline")
            over = (worse is not None and r["bound"] is not None
                    and worse > r["bound"])
            line += ("" if worse is None else f" {worse:+.3f}") + (
                " **over bound**" if over else "") + " |"
        lines.append(line)
    failed = sum(r["failed"] for r in runs)
    walls = {w: max(r["wall_s"] for r in runs if r["workload"] == w)
             for w in workloads}
    lines += ["", f"{len(runs)} runs, {sum(r['attempted'] for r in runs)} "
              f"operations attempted, {failed} failed, "
              f"{sum(not r['correct'] for r in runs)} runs not correct.",
              "Longest run, build check included: " + ", ".join(
                  f"{w} {s:.1f} s" for w, s in walls.items()) + ".",
              "Host steal per run (vCPU seconds, min-max): " + ", ".join(
                  f"{w} {min(r['steal_s'] for r in runs if r['workload'] == w):.2f}"
                  f"-{max(r['steal_s'] for r in runs if r['workload'] == w):.2f}"
                  for w in workloads) + "."]
    out.with_suffix(".md").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
