"""One benchmark run of one workload, in a fresh process started by ``run.py``.

Runs operations one at a time (closed loop) until the next one would overrun
``--seconds``, checks every operation's output, and times a few set-ups of
the workload before each operation and after the last. With ``--trace 1``
the first operation runs untraced, before any wrapper is installed, as the
baseline for the tracing overhead; the wrappers go in just before the second
operation, and it and the rest run traced.
Prints a readable summary, then the result object as the last stdout line.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

from tracing import KEEP_DURATIONS, LayerStats, Tracer, instrument, percentile, quartiles
from workloads import WORKLOADS, recorded_digest

# Set-ups run in batches before every operation and after the last one, so
# their samples spread over the whole run instead of one burst of machine noise.
SETUP_BATCH = 5

# per-layer metrics: span name -> the fields reported for it
LAYER_FIELDS = {
    "objective.utilities": ("calls", "self_s"),
    "risk.auxiliary_value": ("calls", "self_s"),
    "risk.auxiliary_from_values": ("self_s",),
    "matroid.extension_candidates": ("calls", "self_s"),
    "matroid.is_independent": ("calls", "self_s"),
    "matroid.check_subset": ("calls", "self_s"),
    "greedy.greedy_maximize": ("calls", "self_s"),
    "sga.run_sga": ("calls",),
    "sga.alpha_sweep": ("s",),
    "sga.auxiliary_curvature": ("s",),
    "sga.brute_force_opt": ("s",),
    "objective.sample_scenarios": ("s",),
    "problems.load_instance": ("s",),
}


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "CVARGREEDY_WORKERS": os.environ.get("CVARGREEDY_WORKERS"),
    }


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def layer_snapshot(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced operation (times not yet aggregated)."""
    out = {}
    for name, fields in LAYER_FIELDS.items():
        stats = tracer.layers.get(name, LayerStats())
        values = {"calls": stats.calls, "self_s": stats.self_s, "s": stats.total_s}
        for f in fields:
            out[f"{name}.{f}"] = values[f]
    calls = out["objective.utilities.calls"]
    distinct = len(tracer.distinct.get("objective.utilities", ()))
    out["objective.utilities.distinct"] = distinct
    out["objective.utilities.useful_ratio"] = distinct / calls if calls else 0.0
    out["greedy.picks"] = tracer.counts["greedy.picks"]
    out["cli.self_s"] = tracer.layers.get("cli.main", LayerStats()).self_s
    return out


def timed_setups(workload, times: list[float]) -> None:
    for _ in range(SETUP_BATCH):
        start = perf_counter()
        workload.setup()
        times.append(perf_counter() - start)


def run(workload, seconds: float, trace: bool) -> dict:
    expected = recorded_digest(workload.name, workload.seed)
    tracer, restore = Tracer(), None
    ops, snapshots, setup_times, first_digest = [], [], [], None
    begin = perf_counter()
    try:
        while True:
            timed_setups(workload, setup_times)
            traced = trace and bool(ops)
            if traced and restore is None:
                restore = instrument(tracer)
            tracer.reset()
            tracer.enabled = traced
            start, cpu = perf_counter(), cpu_seconds()
            try:
                output, problems = workload.operation(), []
            except Exception:  # an operation that raises counts as failed; keep measuring
                output, problems = None, [traceback.format_exc()]
            wall, cpu = perf_counter() - start, cpu_seconds() - cpu
            tracer.enabled = False
            if traced:
                snapshot = layer_snapshot(tracer)
                snapshot["oracle_evaluations"] = getattr(output, "oracle_evaluations", None) or 0
                snapshots.append((snapshot, tracer.durations[KEEP_DURATIONS]))
            if output is not None:
                problems += check_output(workload, output, expected, first_digest)
                if first_digest is None and output.exit_code == 0:
                    first_digest = output.digest
            ops.append({"wall_s": wall, "cpu_s": cpu, "traced": traced, "problems": problems})
            for problem in problems:
                print(f"FAILED op {len(ops)}: {problem}", file=sys.stderr)
            longest = max(op["wall_s"] for op in ops)
            if perf_counter() - begin + longest > seconds and (snapshots or not trace):
                break
        timed_setups(workload, setup_times)
    finally:
        if restore is not None:
            restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return summarize(workload, ops, setup_times, snapshots, peak_rss_mb, expected)


def check_output(workload, output, expected: str | None, first: str | None) -> list[str]:
    if output.exit_code != 0:
        return [f"exit code {output.exit_code}"]
    found = []
    if expected is not None and output.digest != expected:
        found.append(f"data digest {output.digest[:16]} differs from the recorded "
                     f"{expected[:16]}")
    if first is not None and output.digest != first:
        found.append("data differs from the run's first operation")
    try:
        found += workload.check(output)
    except Exception:  # a check that cannot run is a failed check
        found.append(traceback.format_exc())
    return found


def summarize(workload, ops, setup_times, snapshots, peak_rss_mb, expected) -> dict:
    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    failed = sum(bool(op["problems"]) for op in ops)
    print(f"perfbench {workload.name} seed={workload.seed}: {len(ops)} operations "
          f"({len(traced)} traced), digest "
          f"{'checked against the record' if expected else 'not recorded for this seed'}")
    metrics = {}
    if not snapshots:
        samples = {"wall_s": [op["wall_s"] for op in untraced],
                   "cpu_s": [op["cpu_s"] for op in untraced],
                   "setup_s": setup_times}
        for name, values in samples.items():
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": "s"}
            print(f"  {name:<13} {med:.4f} s   (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        print(f"  {'peak_rss_mb':<13} {peak_rss_mb:.1f} MB")
    else:
        metrics = layer_metrics(snapshots, traced, untraced)
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"  failed_share  {failed / len(ops):g} ({failed}/{len(ops)})")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def layer_metrics(snapshots, traced, untraced) -> dict:
    """Counts from the first traced operation, times as medians over traced ones."""
    first = snapshots[0][0]
    metrics = {}
    for key, value in first.items():
        if isinstance(value, int):
            metrics[key] = {"value": value, "unit": "count"}
        elif key.endswith("useful_ratio"):
            metrics[key] = {"value": value, "unit": "ratio"}
        else:
            metrics[key] = {"value": statistics.median(s[key] for s, _ in snapshots),
                            "unit": "s"}
    solves = [d for _, durations in snapshots for d in durations] or [0.0]
    metrics["greedy.solve_s.p50"] = {"value": percentile(solves, 50), "unit": "s"}
    metrics["greedy.solve_s.p99"] = {"value": percentile(solves, 99), "unit": "s"}
    overhead = (statistics.median(op["wall_s"] for op in traced)
                - statistics.median(op["wall_s"] for op in untraced))
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed)
    print("environment: " + json.dumps(environment(), sort_keys=True))
    result = run(workload, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
