"""paddle-lab benchmark: runs a workload and prints every metric with its unit.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Workloads: forward, readout, cli (or all, one after the other). Each
measurement runs in a fresh worker process (perfbench/worker.py) built from
the package under src/, single-threaded, closed loop. With --trace 0 the
end-to-end metrics are printed, with --trace 1 the per-module metrics of a
traced run and the tracing overhead. The metric names, units and directions
are those of BENCHMARK.json. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calibration import REF_MS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORKLOADS = ("forward", "readout", "cli")

# Set-up is measured in the measuring worker and in this many extra
# set-up-only workers; setup_s is the median.
SETUP_PROBES = 6
# All workers of one workload must end within this many seconds.
WORKLOAD_DEADLINE_S = 170

# nproc is 2 on the reference machine; keep BLAS from starting threads.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PADDLE_LAB_OUT"}
    env.update(WORKER_ENV)
    t0 = time.monotonic()
    timeout = deadline - t0
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["ready_at"] - t0
    result["setup_s"] = result["raw_setup_s"] * REF_MS / result["kernel_ms"]
    return result


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    result = _worker(common + ["--trace", str(trace)], deadline)
    setups = [result]
    wrong = result["warmup_incorrect"]
    for _ in range(SETUP_PROBES):
        probe = _worker(common + ["--setup-only"], deadline)
        setups.append(probe)
        wrong += probe["warmup_incorrect"]
    result["setups"] = [s["setup_s"] for s in setups]
    result["setup_s"] = statistics.median(result["setups"])
    result["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    result["correct"] = result["failed"] == 0 and wrong == 0
    return result


def end_to_end(result: dict) -> dict[str, float]:
    return {
        "tasks_per_s": result["tasks_per_s"],
        "task_ms_p50": result["task_ms_p50"],
        "task_ms_p90": result["task_ms_p90"],
        "converged_ratio": (result["attempted"] - result["nonconverged"]) / result["attempted"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(workload: str, seed: int, result: dict, metrics: dict, units: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"workload {workload}  seed {seed}  {result['wall_s']:.1f} s measured in "
          f"{result['passes']} passes  attempted {result['attempted']}  failed "
          f"{result['failed']} (fail_ratio {result['failed'] / result['attempted']:.4f})  "
          f"nonconverged {result['nonconverged']}  "
          f"latency samples {result['samples']}  correct {result['correct']}")
    for name, value in metrics.items():
        print(f"  {name:<56} {value:>14.6g} {units[name]}")
    print(f"  set-up runs (s): {', '.join(f'{s:.3f}' for s in result['setups'])}")
    print(f"  unscaled wall time: tasks_per_s {result['raw_tasks_per_s']:.6g} 1/s, "
          f"task_ms_p50 {result['raw_task_ms_p50']:.6g} ms, task_ms_p90 "
          f"{result['raw_task_ms_p90']:.6g} ms, setup_s {result['raw_setup_s']:.6g} s")
    print(f"  work in the first 100 tasks: {json.dumps(result['work'], sort_keys=True)}")
    if "sigma0_err_p50" in result:
        print(f"  sigma0_err_p50 over the first 100 tasks: {result['sigma0_err_p50']!r}")
    for line in result["errors"]:
        print(f"  {line}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "paddle_lab", "__init__.py")):
        print(f"error: no paddle_lab package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
            metrics = result["per_layer"] if args.trace else end_to_end(result)
            if set(metrics) != set(units):
                raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                                 f"BENCHMARK.json")
            metrics = {name: metrics[name] for name in units}
            report(workload, args.seed, result, metrics, units)
            prefix = f"{workload}." if args.workload == "all" else ""
            out["correct"] = out["correct"] and result["correct"]
            out["attempted"] += result["attempted"]
            out["failed"] += result["failed"]
            out["metrics"].update({prefix + name: {"value": value, "unit": units[name]}
                                   for name, value in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
