"""Run the benchmark over workloads and seeds and summarize every metric.

    python3 perfbench/report.py                       # each workload once, default seed
    python3 perfbench/report.py --seeds 1-10          # ten runs per workload
    python3 perfbench/report.py --trace 1 --seeds 17,17 --workload run-vehicle
    python3 perfbench/report.py --seeds 1-10 --out perfbench/baseline.json

Each run is one ``run.py`` invocation, made one after another; a seed listed
twice runs twice. For every metric the summary gives the median over runs,
the quartiles (the inclusive method, as in the worker) and the spread
(q3 - q1) / median next to the bound from ``BENCHMARK.json``; counts are
listed exactly. ``failed_share`` is failed over attempted operations, summed
over the runs. With ``--out`` the per-run values and the summary are written
as JSON (merged into the file when it exists).
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEEDS
from tracing import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def one_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line.split(":", 1)[1]) for line in lines
               if line.startswith("environment:"))
    return env, json.loads(lines[-1])


def summarize(results: list[dict], bounds: dict) -> dict:
    summary = {"runs": len(results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results)}
    summary["failed_share"] = summary["failed"] / summary["attempted"]
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        if unit == "count":
            summary[name] = {"unit": unit, "values": values,
                             "repeats_exactly": len(set(values)) == 1}
            continue
        q1, med, q3 = quartiles(values)
        entry = {"unit": unit, "median": med, "q1": q1, "q3": q3, "values": values}
        if name in bounds and med:
            entry["spread"] = (q3 - q1) / med
            entry["bound"] = bounds[name]
        summary[name] = entry
    return summary


def show(workload: str, trace: int, summary: dict) -> None:
    print(f"{workload} (trace {trace}, {summary['runs']} runs): failed_share "
          f"{summary['failed_share']:g} ({summary['failed']}/{summary['attempted']} operations)")
    for name, m in summary.items():
        if not isinstance(m, dict):
            continue
        if "median" not in m:
            tag = "repeats exactly" if m["repeats_exactly"] else "VARIES"
            print(f"  {name:<36} {m['values'][0]} {m['unit']} ({tag})")
            continue
        line = (f"  {name:<36} {m['median']:.6g} {m['unit']}  "
                f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g})")
        if "spread" in m:
            ok = "ok" if m["spread"] < m["bound"] / 3 else "WIDE"
            line += f"  spread {m['spread']:.3f} vs bound {m['bound']} ({ok})"
        print(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seeds", type=seed_list, default=None,
                        help="e.g. 1-10 or 3,5 (default: each workload's own seed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    record = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        seeds = args.seeds or [DEFAULT_SEEDS[workload]]
        results, env = [], None
        for seed in seeds:
            env, result = one_run(workload, seed, args.trace)
            results.append(result)
        summary = summarize(results, bounds)
        show(workload, args.trace, summary)
        if args.out:
            record.setdefault("environment", env)
            record.setdefault(workload, {})[f"trace{args.trace}"] = {
                "seeds": seeds, "seconds": SPEC["run_seconds"],
                "summary": summary}
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
