#!/usr/bin/env python3
"""Build dash-server and the perfbench binary from source, run one
workload, and check the result against BENCHMARK.json.

    python3 perfbench/run.py --shards 4 --event-workers 2 --pool-mb 256 \
        --workload read_mostly --seed 1 --seconds 10 --trace 0

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default .bench_build), stores and server logs to .bench_work; both are
removed or reused, never committed. The last stdout line is the result
object; every line before it is the human-readable report.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("read_mostly", "write_heavy", "point_latency")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--shards", required=True, type=int)
    p.add_argument("--event-workers", required=True, type=int)
    p.add_argument("--pool-mb", required=True, type=int)
    return p.parse_args()


def source_id():
    """The commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "dash_server", "--bin", "dash-server"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def check_result(line, trace):
    """Self-check: exact keys, and every named metric with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    want = bench["per_layer" if trace == "1" else "end_to_end"]
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last output line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")
    metrics = result["metrics"]
    names = [m["name"] for m in want]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for m in want:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            fail(f"{m['name']}: value {got['value']!r} is not a finite number")


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "crates", "server", "Cargo.toml")):
        fail("the repository sources are missing (crates/server); run from a full checkout", 2)
    # One run at a time per checkout: runs share the build and work dirs.
    lock = open(os.path.join(ROOT, ".bench_lock"), "w")
    fcntl.flock(lock, fcntl.LOCK_EX)
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(target)
    work = os.path.join(ROOT, ".bench_work")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--shards", str(args.shards),
        "--event-workers", str(args.event_workers),
        "--pool-mb", str(args.pool_mb),
        "--server-bin", os.path.join(target, "release", "dash-server"),
        "--work", work,
        "--commit", source_id(),
    ]
    # Its own process group, so a timeout can kill perfbench together
    # with the dash-server it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = []

    def kill_group():
        timed_out.append(True)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(RUN_TIMEOUT_S, kill_group)
    watchdog.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if timed_out:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S}s")
    if proc.returncode != 0:
        if last is not None:
            print(last, flush=True)
        fail(f"perfbench exited with code {proc.returncode}")
    if last is None:
        fail("perfbench printed nothing")
    check_result(last, args.trace)
    print(last, flush=True)


if __name__ == "__main__":
    main()
