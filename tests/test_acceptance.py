"""Acceptance gate: one test per advertised guarantee of the package.

Every test prints a single ``[criterion N] PASS/FAIL`` line (bypassing
capture) before asserting, so a plain pytest run yields a readable scorecard.
All instances and scenario batches are seeded; nothing here is flaky.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cvargreedy
from cvargreedy import (SgaConfig, alpha_sweep, approximation_bound,
                        auxiliary_curvature, auxiliary_from_values,
                        brute_force_opt, empirical_cvar, run_sga)
from cvargreedy.cli import main as cli_main
from cvargreedy.problems import VehicleAssignment
from cvargreedy.synthetic import random_instance
from conftest import empirical_var, enumerate_feasible, greedy_maximize

TOL = 1e-9


def announce(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def bound_suite():
    """50 seeded instances solved at two grid spacings, with exact curvature.

    Shared by the guarantee check and the grid-gap check. Everything runs under
    common random numbers on one scenario batch per instance.
    """
    t0 = time.perf_counter()
    alphas = [0.15, 0.3, 0.5, 0.75, 1.0]
    records = []
    for seed in range(50):
        obj = random_instance(seed, size=4 + seed % 5)
        alpha = alphas[seed % len(alphas)]
        for delta in (0.25, 1.0):
            cfg = SgaConfig(alpha=alpha, gamma=obj.gamma_hint, delta=delta,
                            samples=60, seed=seed + 1000)
            sc = obj.sample_scenarios(cfg.samples, cfg.seed)
            result = run_sga(obj, obj.matroid, cfg, scenarios=sc)
            ref = brute_force_opt(obj, obj.matroid, sc, cfg.alpha, cfg.tau_grid())
            curv = auxiliary_curvature(obj, obj.matroid, sc, cfg.tau_grid(),
                                       method="exact_matroid_enumeration")
            # the guarantee is anchored at the grid-free optimum: the best
            # per-set cvar, which the scalarized objective attains at its var
            report = approximation_bound(curv, cfg, h_star=ref.cvar_star)
            records.append({
                "delta": delta,
                "slack": result.h_value - report.certified_lower_bound,
                "gap": ref.cvar_star - ref.h_star,
            })
    return {"records": records, "elapsed": time.perf_counter() - t0}


def test_criterion_1_certified_bound(bound_suite, capsys):
    records, elapsed = bound_suite["records"], bound_suite["elapsed"]
    worst = min(r["slack"] for r in records)
    ok = worst >= -TOL and elapsed < 60.0
    announce(capsys, 1, ok,
             f"{len(records)} runs, worst guarantee slack {worst:+.3e}, "
             f"suite time {elapsed:.1f}s (< 60s)")
    assert worst >= -TOL
    assert elapsed < 60.0


def test_criterion_2_grid_gap(bound_suite, capsys):
    records = bound_suite["records"]
    worst_over = max(r["gap"] - r["delta"] for r in records)
    least = min(r["gap"] for r in records)
    ok = worst_over <= TOL and least >= -TOL
    announce(capsys, 2, ok,
             f"grid-free minus grid optimum within spacing on "
             f"{len(records)} runs, worst overshoot {worst_over:+.3e}")
    assert worst_over <= TOL
    assert least >= -TOL


def test_criterion_3_greedy_ratio(capsys):
    worst_all, worst_uniform = 2.0, 2.0
    for seed in range(100):
        kind = "uniform" if seed % 2 == 0 else "mixed"
        obj = random_instance(seed + 500, size=4 + seed % 5, matroid_kind=kind)
        sc = obj.sample_scenarios(50, seed=seed)
        tau = (0.2 + 0.07 * (seed % 10)) * obj.gamma_hint

        def clipped_total(s):
            return float(np.minimum(obj.utilities(s, sc), tau).sum())

        chosen, _ = greedy_maximize(clipped_total, obj.matroid)
        best = max(clipped_total(s) for s in enumerate_feasible(obj.matroid))
        assert best > 0.0
        ratio = clipped_total(chosen) / best
        worst_all = min(worst_all, ratio)
        if kind == "uniform":
            worst_uniform = min(worst_uniform, ratio)
    floor_uniform = 1.0 - 1.0 / math.e
    ok = worst_all >= 0.5 - TOL and worst_uniform >= floor_uniform - TOL
    announce(capsys, 3, ok,
             f"100 instances, worst ratio {worst_all:.4f} (>= 1/2), "
             f"worst uniform ratio {worst_uniform:.4f} (>= 1 - 1/e)")
    assert worst_all >= 0.5 - TOL
    assert worst_uniform >= floor_uniform - TOL


def test_criterion_4_estimator_identities(capsys):
    rng = np.random.default_rng(2024)
    curated = [0.1, 0.2, 0.25, 1 / 3, 0.5, 0.6, 0.75, 0.9, 1.0]
    worst_mean_gap = worst_inner_gap = 0.0
    order_ok = True
    for i in range(500):
        values = rng.random(int(rng.integers(1, 301))) * 2.0
        alpha = (curated[i % len(curated)] if i % 2 == 0
                 else float(rng.uniform(0.05, 1.0)))
        cvar = empirical_cvar(values, alpha)
        var = empirical_var(values, alpha)
        order_ok = order_ok and cvar <= var <= values.max()
        worst_mean_gap = max(worst_mean_gap,
                             abs(empirical_cvar(values, 1.0) - values.mean()))
        grid_max = max(auxiliary_from_values(values, float(t), alpha)
                       for t in values)
        worst_inner_gap = max(worst_inner_gap, abs(grid_max - cvar))
    ok = order_ok and worst_mean_gap <= 1e-12 and worst_inner_gap <= TOL
    announce(capsys, 4, ok,
             f"500 samples: cvar<=var<=max {order_ok}, risk-neutral mean gap "
             f"{worst_mean_gap:.1e} (<= 1e-12), inner-max gap "
             f"{worst_inner_gap:.1e} (<= 1e-9)")
    assert order_ok
    assert worst_mean_gap <= 1e-12
    assert worst_inner_gap <= TOL


def test_criterion_5_concavity_and_slopes(capsys):
    rng = np.random.default_rng(7)
    worst_second = -np.inf
    worst_over = worst_under = -np.inf
    for i in range(50):
        obj = random_instance(3000 + i, size=4 + i % 5)
        sc = obj.sample_scenarios(40, seed=i)
        n = obj.ground.size
        subset = frozenset(int(e) for e in rng.choice(
            n, int(rng.integers(1, n + 1)), replace=False))
        u = obj.utilities(subset, sc)
        taus = np.linspace(0.0, obj.gamma_hint, 200)
        for alpha in (0.1, 0.5, 1.0):
            h = np.array([auxiliary_from_values(u, float(t), alpha)
                          for t in taus])
            worst_second = max(worst_second, float(np.diff(h, 2).max()))
            slopes = np.diff(h) / np.diff(taus)
            worst_over = max(worst_over, float(slopes.max()) - 1.0)
            worst_under = max(worst_under,
                              -(1.0 / alpha - 1.0) - float(slopes.min()))
    ok = worst_second <= TOL and worst_over <= TOL and worst_under <= TOL
    announce(capsys, 5, ok,
             f"150 curves: max second difference {worst_second:.1e}, slope "
             f"window breaches {max(worst_over, worst_under):+.1e} (<= 1e-9)")
    assert worst_second <= TOL
    assert worst_over <= TOL
    assert worst_under <= TOL


def test_criterion_6_sampling_convergence(capsys):
    # the advertised closed-form count for eps=0.05, delta=0.1 is 921;
    # required_sample_count rounds the same expression up to 922
    n_s, eps, trials = 921, 0.05, 200
    min_hits = trials
    for alpha in (0.25, 0.5, 1.0):
        hits = sum(
            abs(empirical_cvar(np.random.default_rng(t).random(n_s), alpha)
                - alpha / 2.0) < eps
            for t in range(trials))
        min_hits = min(min_hits, hits)
    ok = min_hits >= int(0.9 * trials)
    announce(capsys, 6, ok,
             f"uniform utility, n_s={n_s}: worst hit count {min_hits}/{trials} "
             f"(needs >= {int(0.9 * trials)})")
    assert min_hits >= int(0.9 * trials)


def test_criterion_7_vehicle_trends(capsys):
    t0 = time.perf_counter()
    obj = VehicleAssignment.generate(vehicles=6, demands=4, seed=17)
    cfg = SgaConfig(alpha=0.1, gamma=obj.gamma_hint, delta=1.0,
                    samples=1000, seed=17)
    alphas = [0.1, 0.3, 0.6, 1.0]
    table = alpha_sweep(obj, obj.matroid, cfg, alphas)
    elapsed = time.perf_counter() - t0
    hs = [p.result.h_value for p in table.points]
    stds = [p.utility_std for p in table.points]
    means = [p.utility_mean for p in table.points]
    adds = [p.additive_error for p in table.points]
    a_ok = all(x <= y + TOL for x, y in zip(hs, hs[1:]))
    b_ok = stds[0] <= stds[-1] and means[0] <= means[-1]
    c_ok = (all(x >= y - 1e-12 for x, y in zip(adds, adds[1:]))
            and adds[-1] == 0.0)
    ok = a_ok and b_ok and c_ok and elapsed < 300.0
    announce(capsys, 7, ok,
             f"vehicle 6x4: value rises with alpha {a_ok}; risk-averse std "
             f"{stds[0]:.2f} <= {stds[-1]:.2f} and mean {means[0]:.2f} <= "
             f"{means[-1]:.2f} {b_ok}; additive column non-increasing, 0 at "
             f"alpha=1 {c_ok}; {elapsed:.1f}s (< 300s)")
    assert a_ok
    assert b_ok
    assert c_ok
    assert elapsed < 300.0


def test_criterion_8_cost_scaling(capsys):
    obj = random_instance(88, size=6, matroid_kind="uniform")
    base = SgaConfig(alpha=0.5, gamma=10.0, delta=1.0, samples=40, seed=5)
    halved = SgaConfig(alpha=0.5, gamma=10.0, delta=0.5, samples=40, seed=5)
    doubled = SgaConfig(alpha=0.5, gamma=10.0, delta=1.0, samples=80, seed=5)
    cost = {cfg: run_sga(obj, obj.matroid, cfg).oracle_evaluations
            for cfg in (base, halved, doubled)}
    grid_ratio = cost[halved] / cost[base]
    sample_ratio = cost[doubled] / cost[base]
    ok = 1.8 <= grid_ratio <= 2.2 and 1.8 <= sample_ratio <= 2.2
    announce(capsys, 8, ok,
             f"oracle evaluations scale by {grid_ratio:.3f} when the grid "
             f"doubles and {sample_ratio:.3f} when samples double "
             f"(both within 2 +- 10%)")
    assert 1.8 <= grid_ratio <= 2.2
    assert 1.8 <= sample_ratio <= 2.2


# a child process importing the same package, with the CLI arguments after -c
_CLI_CHILD = "import sys; from cvargreedy.cli import main; sys.exit(main(sys.argv[1:]))"


def test_criterion_9_cli_determinism(tmp_path, capsys):
    veh, sen = tmp_path / "veh.json", tmp_path / "sen.json"
    assert cli_main(["gen", "vehicle", "--vehicles", "3", "--demands", "2",
                     "--seed", "4", "--out", str(veh)]) == 0
    assert cli_main(["gen", "sensor", "--candidates", "8", "--select", "3",
                     "--rows", "8", "--cols", "8", "--seed", "2",
                     "--out", str(sen)]) == 0
    solver = ["--samples", "200", "--seed", "9"]
    commands = {
        "run": (["run", str(veh), "--alpha", "0.4", "--gamma", "30",
                 "--delta", "1.5", *solver], ["{}.json", "{}_tau_curve.csv"]),
        # the sensor sweep scores extensions with its own batched kernel
        "sweep": (["sweep", str(sen), "--alphas", "0.2,0.6,1", "--delta", "2",
                   *solver], ["{}_alpha_table.csv", "{}_tau_curves.csv",
                              "{}_histograms.csv"]),
    }

    def data_sections(prefix, files):
        sections = []
        for name in files:
            text = (tmp_path / name.format(prefix)).read_text()
            if name.endswith(".json"):
                doc = json.loads(text)
                doc.pop("manifest")
                sections.append(json.dumps(doc, sort_keys=True))
            else:
                sections.append("\n".join(line for line in text.splitlines()
                                           if not line.startswith("# ")))
        return sections

    def in_process(tag):
        out = {}
        for name, (argv, files) in commands.items():
            prefix = f"{name}_{tag}"
            assert cli_main([*argv, "--out", str(tmp_path / prefix)]) == 0
            out[name] = data_sections(prefix, files)
        return out

    def fresh_process(hash_seed):
        # a new interpreter under another string-hash seed: nothing may depend
        # on set or dict order that the hash seed drives
        src = str(Path(cvargreedy.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = {}
        for name, (argv, files) in commands.items():
            prefix = f"{name}_hash{hash_seed}"
            child = subprocess.run([sys.executable, "-c", _CLI_CHILD, *argv,
                                    "--out", str(tmp_path / prefix)],
                                   env=env, capture_output=True, text=True)
            assert child.returncode == 0, child.stderr
            out[name] = data_sections(prefix, files)
        return out

    first = in_process("a")
    repeat = in_process("a2")
    children = [fresh_process(seed) for seed in (1, 2)]
    ok = all(first == other for other in [repeat, *children])
    announce(capsys, 9, ok,
             "repeated runs and fresh processes under two other hash seeds "
             "produce byte-identical data sections (vehicle run, sensor sweep)")
    assert first == repeat
    for child in children:
        assert first == child
