#!/usr/bin/env python3
"""convalg benchmark: time to verdict and peak memory, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run from the root of a source checkout.  Each workload runs in a fresh
worker process (so peak_rss_mib is that workload's own) with the BLAS and
OpenMP thread pools capped before numpy is imported.  With --trace 0
the last line of output is the end-to-end result; with --trace 1 it holds
the per-layer metrics of a traced replay.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli", "signal-algebra")
# One BLAS/OpenMP thread.  With one thread per core on a 2-core machine, a
# spinning OpenBLAS worker halved the speed of the Python code that ran after
# each threaded call, and timings switched between two modes from run to run.
BLAS_THREADS = 1
SETUP_RUNS = 3          # setup_s is the median over this many fresh processes
DEADLINE_S = 170.0      # the whole invocation ends within this


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), HERE, os.environ.get("PYTHONPATH")) if p)
    return env


def run_worker(args, workdir: str, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, deadline: float) -> dict:
    """Run one workload; returns the worker's result with setup_s as a median."""
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_worker(args, workdir, deadline, setup_only=True))
        result = run_worker(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        samples = [s["setup_s"] for s in setups] + [result["metrics"]["setup_s"]["value"]]
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        result["summary"]["setup_samples_s"] = samples
        result["attempted"] += sum(s["attempted"] for s in setups)
        result["failed"] += sum(s["failed"] for s in setups)
        result["correct"] = result["correct"] and result["failed"] == 0
    return result


def report(workload: str, result: dict) -> None:
    print(f"== {workload}  env {json.dumps(result['env'], sort_keys=True)}")
    print(f"   summary {json.dumps(result['summary'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"   {name:32s} {m['value']:.6g} {m['unit']}")
    for problem in result["failures"]:
        print(f"   FAILED {problem}")


def final_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "convalg", "cli.py")) or \
            not os.path.isdir(os.path.join(ROOT, "fixtures")):
        print(f"error: {ROOT} is not a convalg checkout (src/convalg and fixtures/ "
              "are needed)", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            args.workload = name
            result = measure(args, time.monotonic() + DEADLINE_S)
            report(name, result)
            print(final_line(result), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
