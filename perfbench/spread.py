#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload read_mostly --seeds 1-10 [--trace 0]
    python3 perfbench/spread.py --workload write_heavy --seeds 7,7 --trace 1 --repeat

For every metric: the median over the runs and the interquartile range
as a share of the median (statistics.quantiles(values, n=4)), next to
a third of the metric's bound in BENCHMARK.json, the spread the
benchmark aims to stay under. `--repeat` instead requires the
deterministic counts to be identical across the runs (use one seed
several times). Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Counts that must repeat exactly for the same seed.
DETERMINISTIC = (
    "repl.write_syscalls_per_set",
    "repl.log_bytes_per_set",
    "table.flushes_per_insert",
    "table.fences_per_insert",
    "table.pm_reads_per_get",
    "table.pm_reads_per_insert",
    "table.splits",
    "resp.allocs_per_cmd",
    "engine.allocs_per_get",
    "engine.allocs_per_set",
)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,3")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    p.add_argument("--repeat", action="store_true")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    runs = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
              flush=True)
    if args.repeat:
        bad = [k for k in DETERMINISTIC if len({r[k] for r in runs}) != 1]
        print("deterministic counts repeat exactly" if not bad else f"NOT REPEATED: {bad}")
        sys.exit(1 if bad else 0)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'metric':34} {'median':>14} {'iqr/median':>11} {'bound/3':>8}")
    worst = 0
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above bound/3"
            worst += 1
        print(f"{name:34} {med:14.6g} {spread:11.4f} "
              f"{(bound / 3 if bound else float('nan')):8.4f}{flag}")
    sys.exit(1 if worst else 0)


if __name__ == "__main__":
    main()
