"""Measure one workload in this process: set-up, closed loop, known-answer checks.

Started by run.py, which caps the BLAS/OpenMP threads in the environment
before this process imports numpy.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

TAIL_BEYOND = 10        # the tail percentile leaves this many samples above it


def closed_loop(requests, *, seconds=None, cycle=1, count=None, on_request=None):
    """One client: each request is sent only after the previous verdict returned.

    Stops at the first multiple of ``cycle`` requests after the summed request
    time reaches ``seconds``, or after ``count`` requests.  Returns the
    per-request latencies and the disagreements found.
    """
    latencies: list[float] = []
    failures: list[str] = []
    busy = 0.0
    i = 0
    while True:
        req = requests[i % len(requests)]
        if on_request:
            on_request(i)
        t0 = time.perf_counter()
        try:
            outcome, error = req.run(), None
        except Exception as exc:      # a request that raised is a failed verdict
            outcome, error = None, exc
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        busy += t1 - t0
        if error is not None:
            problem = f"raised {type(error).__name__}: {error}"
        else:
            try:
                problem = req.check(outcome)
            except Exception as exc:  # a malformed outcome is a disagreement too
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{req.kind}: {problem}")
        i += 1
        if count is not None and i >= count:
            break
        if seconds is not None and busy >= seconds and i % cycle == 0:
            break
    return latencies, failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return 100.0 * (k + 1) / n, ordered[k]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def set_up(name: str, seed: int, workdir: str):
    """Generate the inputs and run the warm-up requests; returns the workload."""
    workload = workloads.WORKLOADS[name](seed, workdir)
    _, failures = closed_loop(workload.warmup, count=len(workload.warmup))
    return workload, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report the set-up time and exit")
    parser.add_argument("--workdir", required=True,
                        help="directory for generated inputs and reports")
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="inputs-", dir=args.workdir)
    try:
        workload, failures = set_up(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "attempted": len(workload.warmup),
                              "failed": len(failures)}))
            return 0

        # a traced run splits --seconds between the untraced loop and the
        # traced replay of the same requests
        seconds = args.seconds / 2 if args.trace else args.seconds
        latencies, loop_failures = closed_loop(workload.requests, seconds=seconds,
                                               cycle=workload.cycle)
        failures += loop_failures
        attempted = len(workload.warmup) + len(latencies) + len(workload.final_checks)
        summary: dict = {"error_frac": len(loop_failures) / len(latencies),
                         "requests": len(latencies)}
        if args.trace:
            t = tracer.Tracer()
            with t:
                traced, traced_failures = closed_loop(
                    workload.requests, count=len(latencies), seconds=seconds,
                    on_request=lambda i: setattr(t, "request", i))
            failures += traced_failures
            attempted += len(traced)
            summary["traced_requests"] = len(traced)
            metrics = t.layer_metrics(len(traced), tracer.overhead_frac(latencies, traced))
            units = {k: v[0] for k, v in tracer.LAYER_METRICS.items()}
        else:
            pct, tail_s = tail(latencies)
            summary["tail_percentile"] = pct
            metrics = {
                "verdict_p50_ms": 1e3 * statistics.median(latencies),
                "verdict_tail_ms": 1e3 * tail_s,
                "verdicts_per_s": len(latencies) / sum(latencies),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": setup_s,
            }
            units = {"verdict_p50_ms": "ms", "verdict_tail_ms": "ms", "verdicts_per_s": "1/s",
                     "peak_rss_mib": "MiB", "setup_s": "s"}
        for final in workload.final_checks:
            problem = final()
            if problem:
                failures.append(f"untimed check: {problem}")
        print(json.dumps({
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "env": environment(),
            "summary": summary,
            "failures": failures[:20],
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
