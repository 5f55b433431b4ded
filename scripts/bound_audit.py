#!/usr/bin/env python3
"""Audit the approximation guarantee on random small instances.

For each seeded instance the script runs the solver and the guarantee
check of ``cvargreedy verify`` (``cvargreedy.cli.verification``): the exact
optimum and the exact matroid-restricted curvature of the scalarized
objective by enumeration, the certified lower bound and the slack (solver
value minus bound). A slack below -SLACK_TOL, or NaN, counts as a violation
and would falsify the guarantee; the audit prints the worst case and writes
one CSV row per run.

Usage:
    python scripts/bound_audit.py --instances 50 --out results/bound_audit.csv
    python scripts/bound_audit.py --instances 200 --alpha 0.2 --size 7
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

from cvargreedy import SgaConfig, run_sga
from cvargreedy.cli import SLACK_TOL, verification
from cvargreedy.synthetic import random_instance


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=50)
    parser.add_argument("--size", type=int, default=None,
                        help="ground set size (default: cycle through 4..8)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="risk level (default: cycle through five levels)")
    parser.add_argument("--deltas", default="0.25,1.0",
                        help="comma separated grid spacings to audit")
    parser.add_argument("--samples", type=int, default=60)
    parser.add_argument("--matroid", default="mixed",
                        choices=["mixed", "uniform", "partition"])
    parser.add_argument("--seed-offset", type=int, default=0, dest="seed_offset")
    parser.add_argument("--out", default=None, help="optional CSV path")
    return parser.parse_args()


def run() -> int:
    args = parse_args()
    deltas = [float(d) for d in args.deltas.split(",") if d.strip()]
    alpha_cycle = [0.15, 0.3, 0.5, 0.75, 1.0]
    rows, violations = [], 0
    t0 = time.perf_counter()
    for i in range(args.instances):
        seed = args.seed_offset + i
        size = args.size if args.size is not None else 4 + i % 5
        alpha = args.alpha if args.alpha is not None else alpha_cycle[i % 5]
        obj = random_instance(seed, size=size, matroid_kind=args.matroid)
        for delta in deltas:
            cfg = SgaConfig(alpha=alpha, gamma=obj.gamma_hint, delta=delta,
                            samples=args.samples, seed=seed + 1000)
            scenarios = obj.sample_scenarios(cfg.samples, cfg.seed)
            result = run_sga(obj, obj.matroid, cfg, scenarios=scenarios)
            block, passed = verification(obj, cfg, scenarios, result)
            violations += not passed
            rows.append({
                "seed": seed, "size": size, "alpha": alpha, "delta": delta,
                "solver_value": result.h_value,
                "grid_optimum": block["h_star"],
                "cvar_optimum": block["cvar_optimum"],
                "curvature": block["curvature"],
                "certified_lower_bound": block["certified_lower_bound"],
                "slack": block["slack"],
            })
    elapsed = time.perf_counter() - t0

    worst = min(rows, key=lambda r: r["slack"])
    print(f"{len(rows)} audited runs in {elapsed:.1f}s")
    print(f"worst slack {worst['slack']:+.4e} "
          f"(seed {worst['seed']}, alpha {worst['alpha']}, "
          f"delta {worst['delta']})")
    print(f"violations beyond {SLACK_TOL:g}: {violations}")
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {path}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(run())
