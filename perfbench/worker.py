"""Runs one benchmark workload in this process; prints its raw result as JSON.

Started by run.py, one fresh process per measurement, so that set-up time
covers interpreter start, `import paddle_lab`, input generation and
warm-up. The loop is closed and single-threaded: each task starts when the
previous one (and its check) has ended.

    python3 perfbench/worker.py --workload forward --seed 1 --seconds 20 --trace 0
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
sys.path.insert(0, SRC)

from calibration import REF_MS, kernel_ms  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# Counts come from the first PREFIX tasks of the first pass, which every
# run completes, so they repeat exactly for a seed.
PREFIX = 100
WARMUP_TASKS = 2
# Kernel runs after set-up that scale the set-up time, and the number of
# neighbouring kernel runs whose median scales a task run (calibration.py).
CALIBRATION_RUNS = 5
SMOOTH = 5


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run passes over the workload's tasks until `seconds` have passed.

    Every pass runs and checks every task, and times the calibration kernel
    right before each task. Each task run is scaled to reference
    milliseconds by the median kernel time of the SMOOTH runs around it
    (see calibration.py); a task's latency is the median of its scaled
    runs. A task that fails on any pass has no latency sample. A fit that
    correctly reports non-convergence is not a failure; it is counted in
    `nonconverged`.
    """
    n = workload.tasks
    runs = []  # (task, ms, kernel ms) of every run that passed its check
    ok = [True] * n
    errors = []
    work = Counter()
    attempted = failed = nonconverged = passes = 0
    t_start = time.perf_counter()
    while passes == 0 or time.perf_counter() - t_start < seconds:
        for i in range(n):
            ref_ms = kernel_ms()
            if tracer is not None:
                frame = tracer.begin_task(passes * n + i, workload.label(i))
                tracer.on = True
            t0 = time.perf_counter()
            try:
                out = workload.run(i)
                elapsed, error = time.perf_counter() - t0, None
            except Exception as exc:  # an exception the task should not raise
                elapsed, error = time.perf_counter() - t0, exc
            if tracer is not None:
                tracer.on = False
                tracer.close(frame, error is not None)
            attempted += 1
            try:
                if error is not None:
                    raise CheckFailed(f"raised {type(error).__name__}: {error}")
                counts = workload.check(i, out)
                runs.append((i, 1e3 * elapsed, ref_ms))
                nonconverged += counts.get("nonconverged", 0)
                if passes == 0 and i < PREFIX:
                    work.update(counts)
                continue
            except CheckFailed as exc:
                message = f"wrong output: {exc}"
            failed += 1
            ok[i] = False
            if passes == 0:
                errors.append(f"task {i} ({workload.label(i)}): {message}")
        passes += 1

    raw = [[] for _ in range(n)]
    scaled = [[] for _ in range(n)]
    half = SMOOTH // 2
    for k, (i, ms, _) in enumerate(runs):
        around = statistics.median(r[2] for r in runs[max(0, k - half):k + half + 1])
        raw[i].append(ms)
        scaled[i].append(ms * REF_MS / around)
    lat_ms = [statistics.median(x) for x, good in zip(scaled, ok) if good]
    raw_ms = [statistics.median(x) for x, good in zip(raw, ok) if good]
    return {
        "attempted": attempted,
        "failed": failed,
        "nonconverged": nonconverged,
        "errors": errors[:10],
        "wall_s": time.perf_counter() - t_start,
        "passes": passes,
        "samples": len(lat_ms),
        "tasks_per_s": 1e3 * len(lat_ms) / sum(lat_ms) if lat_ms else 0.0,
        "task_ms_p50": _percentile(lat_ms, 50),
        "task_ms_p90": _percentile(lat_ms, 90),
        "raw_tasks_per_s": 1e3 * len(raw_ms) / sum(raw_ms) if raw_ms else 0.0,
        "raw_task_ms_p50": _percentile(raw_ms, 50),
        "raw_task_ms_p90": _percentile(raw_ms, 90),
        "work": dict(work),
        **workload.quality(PREFIX),
    }


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report when the first task would start")
    args = ap.parse_args(argv)

    import paddle_lab
    if os.path.dirname(os.path.abspath(paddle_lab.__file__)) != os.path.join(SRC, "paddle_lab"):
        raise ImportError(f"paddle_lab imported from {paddle_lab.__file__}, not from {SRC}")

    scratch = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        warm = warm_up(workload)
        ready_at = time.monotonic()
        result = {"ready_at": ready_at, "warmup_incorrect": warm,
                  "kernel_ms": statistics.median(kernel_ms() for _ in range(CALIBRATION_RUNS))}
        if not args.setup_only:
            # a traced run splits its time between an untraced and a traced measurement
            seconds = args.seconds / 2 if args.trace else args.seconds
            run = measure(workload, seconds)
            if args.trace:
                run = traced(workload, seconds, run["tasks_per_s"], args.workload)
            result.update(run)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def warm_up(workload) -> int:
    """Run the first tasks once, untimed; return how many gave wrong outputs."""
    wrong = 0
    for i in range(WARMUP_TASKS):
        try:
            workload.check(i, workload.run(i))
        except Exception:  # wrong output or unexpected exception
            wrong += 1
    return wrong


def traced(workload, seconds: float, untraced_tasks_per_s: float, name: str) -> dict:
    """Repeat the run with every module wrapped; add the per-module metrics."""
    tracer = Tracer()
    tracer.install()
    run = measure(workload, seconds, tracer)
    metrics = layer_metrics(tracer, run["attempted"], PREFIX)
    metrics["extraction.fit_film_parameters.sigma0_err_p50"] = run.get("sigma0_err_p50", 0.0)
    metrics["cli.bytes_written"] = run["work"].get("bytes_written", 0) / PREFIX
    metrics["trace.tasks_per_s"] = run["tasks_per_s"]
    metrics["trace.overhead_ratio"] = (untraced_tasks_per_s / run["tasks_per_s"]
                                       if run["tasks_per_s"] else 0.0)
    tracer.save(os.path.join(OUT, f"spans-{name}.npz"))
    run["per_layer"] = metrics
    return run


if __name__ == "__main__":
    sys.exit(main())
