"""Solver sweep over the threshold grid: frozen small cases, determinism,
evaluation accounting, the brute-force reference and the guarantee report."""
from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvargreedy import (BoundReport, Curvature, GroundSet, SgaConfig,
                        UniformMatroid, additive_penalty, alpha_sweep,
                        approximation_bound, auxiliary_curvature,
                        brute_force_opt, empirical_cvar, greedy_maximize,
                        run_sga, sga)
from cvargreedy.synthetic import random_instance, random_matroid
from conftest import (ClonedObjective, ModularDeterministic, matroid_curvature,
                      reference_auxiliary_curvature, reference_brute_force_opt,
                      reference_run_sga, total_curvature)


def two_weight_objective():
    ground = GroundSet(2, ("a", "b"))
    matroid = UniformMatroid(ground, 1)
    return ModularDeterministic([2.0, 1.0], matroid), matroid


# ------------------------------------------------------------------ config

def test_config_validation():
    good = dict(alpha=0.5, gamma=2.0, delta=1.0, samples=10)
    SgaConfig(**good)
    for bad in (dict(good, alpha=0.0), dict(good, alpha=1.5),
                dict(good, gamma=0.0), dict(good, delta=0.0),
                dict(good, delta=2.5), dict(good, samples=0),
                dict(good, gamma=float("inf")), dict(good, delta=float("nan")),
                dict(good, gamma=1e6, delta=1e-9)):
        with pytest.raises(ValueError):
            SgaConfig(**bad)


def test_tau_grid():
    cfg = SgaConfig(alpha=0.5, gamma=2.0, delta=1.0, samples=1)
    assert cfg.tau_grid() == [0.0, 1.0, 2.0]
    cfg = SgaConfig(alpha=0.5, gamma=2.0, delta=2.0, samples=1)
    assert cfg.tau_grid() == [0.0, 2.0]
    # non-divisible spacing: last point overshoots gamma
    cfg = SgaConfig(alpha=0.5, gamma=1.0, delta=0.4, samples=1)
    assert cfg.tau_grid() == pytest.approx([0.0, 0.4, 0.8, 1.2])
    # float noise must not add a phantom point: 0.1 * 30 > 3.0 in binary
    cfg = SgaConfig(alpha=0.5, gamma=3.0, delta=0.1, samples=1)
    assert len(cfg.tau_grid()) == 31


# ------------------------------------------------------------- small cases

def test_two_element_sweep_frozen():
    obj, matroid = two_weight_objective()
    cfg = SgaConfig(alpha=0.5, gamma=2.0, delta=1.0, samples=4)
    result = run_sga(obj, matroid, cfg)
    assert [p.tau for p in result.sweep] == [0.0, 1.0, 2.0]
    assert [p.h_value for p in result.sweep] == [0.0, 1.0, 2.0]
    assert result.chosen_set == {0}
    assert result.chosen_tau == 2.0
    assert result.h_value == 2.0
    # every grid point needs 1 empty + 2 candidate + 1 final evaluations
    assert all(p.evaluations == 4 for p in result.sweep)
    assert result.oracle_evaluations == 3 * 4 * 4


def test_risk_neutral_matches_mean_greedy():
    obj = random_instance(17, size=5)
    cfg = SgaConfig(alpha=1.0, gamma=obj.gamma_hint, delta=obj.gamma_hint / 8,
                    samples=40, seed=3)
    sc = obj.sample_scenarios(cfg.samples, cfg.seed)
    result = run_sga(obj, obj.matroid, cfg, scenarios=sc)
    chosen, _ = greedy_maximize(lambda s: float(obj.utilities(s, sc).mean()),
                                obj.matroid)
    assert result.chosen_set == chosen
    assert result.h_value == pytest.approx(float(obj.utilities(chosen, sc).mean()))


def test_h_value_is_final_recompute():
    obj, matroid = two_weight_objective()
    cfg = SgaConfig(alpha=0.5, gamma=2.0, delta=0.5, samples=2)
    result = run_sga(obj, matroid, cfg)
    for p in result.sweep:
        sc = obj.sample_scenarios(cfg.samples, cfg.seed)
        u = obj.utilities(p.selected, sc)
        expected = p.tau - np.maximum(p.tau - u, 0.0).mean() / cfg.alpha
        assert p.h_value == pytest.approx(expected)


# ------------------------------------------------------------- determinism

def test_run_sga_deterministic():
    obj = random_instance(23, size=6)
    cfg = SgaConfig(alpha=0.3, gamma=obj.gamma_hint, delta=obj.gamma_hint / 7,
                    samples=60, seed=9)
    assert run_sga(obj, obj.matroid, cfg) == run_sga(obj, obj.matroid, cfg)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 7),
       kind=st.sampled_from(["uniform", "partition"]), copies=st.integers(1, 2),
       alphas=st.lists(st.sampled_from([0.05, 0.2, 0.5, 1.0]), min_size=1,
                       max_size=3),
       spacing=st.sampled_from([1.0, 0.4, 1 / 7, 0.05]),
       samples=st.sampled_from([1, 7, 60, 300]))
def test_batched_sweep_matches_per_tau_reference(seed, size, kind, copies,
                                                 alphas, spacing, samples):
    base = random_instance(seed, size=size, matroid_kind=kind)
    if copies == 1:
        obj = base
    else:  # clones tie exactly, so the smallest-id tie-break is exercised
        rng = np.random.default_rng(seed)
        obj = ClonedObjective(base, random_matroid(
            rng, GroundSet(copies * size), kind))
    cfg = SgaConfig(alpha=alphas[0], gamma=obj.gamma_hint,
                    delta=spacing * obj.gamma_hint, samples=samples, seed=seed)
    for alpha in alphas:
        at_alpha = dataclasses.replace(cfg, alpha=alpha)
        ours = run_sga(obj, obj.matroid, at_alpha)
        ref = reference_run_sga(obj, obj.matroid, at_alpha)
        assert ours.sweep == ref.sweep
        assert ours.chosen_set == ref.chosen_set
        assert ours.chosen_tau == ref.chosen_tau
        assert ours.h_value == ref.h_value
        assert ours.oracle_evaluations == ref.oracle_evaluations
    table = alpha_sweep(obj, obj.matroid, cfg, alphas)
    for point in table.points:
        assert point.result == run_sga(obj, obj.matroid,
                                       dataclasses.replace(cfg, alpha=point.alpha))


def test_batched_sweep_matches_reference_on_large_batches():
    # 70,001 samples score 3 grid points per hinge chunk, 270,001 one point
    obj = random_instance(5, size=4, matroid_kind="uniform")
    for samples in (70_001, 270_001):
        cfg = SgaConfig(alpha=0.2, gamma=obj.gamma_hint,
                        delta=obj.gamma_hint / 7, samples=samples, seed=2)
        assert run_sga(obj, obj.matroid, cfg) == reference_run_sga(
            obj, obj.matroid, cfg)


def test_explicit_scenarios_size_checked():
    obj = random_instance(31, size=4)
    cfg = SgaConfig(alpha=0.5, gamma=obj.gamma_hint, delta=obj.gamma_hint,
                    samples=25, seed=0)
    with pytest.raises(ValueError, match="does not match"):
        run_sga(obj, obj.matroid, cfg, scenarios=obj.sample_scenarios(10, 0))


def test_oracle_evaluation_accounting():
    obj = random_instance(37, size=5, matroid_kind="uniform")
    k = obj.matroid.k
    n = obj.ground.size
    per_point = 2 + sum(n - s for s in range(k))
    cfg = SgaConfig(alpha=0.5, gamma=10.0, delta=1.0, samples=35, seed=1)
    result = run_sga(obj, obj.matroid, cfg)
    assert result.oracle_evaluations == 11 * per_point * 35
    doubled = dataclasses.replace(cfg, samples=70)
    assert (run_sga(obj, obj.matroid, doubled).oracle_evaluations
            == 2 * result.oracle_evaluations)


# -------------------------------------------------------------- brute force

def test_brute_force_two_element():
    obj, matroid = two_weight_objective()
    sc = obj.sample_scenarios(4, 0)
    ref = brute_force_opt(obj, matroid, sc, alpha=0.5, taus=[0.0, 1.0, 2.0])
    assert ref.best_set == {0}
    assert ref.h_star == 2.0
    assert ref.best_tau == 2.0
    assert ref.cvar_star == 2.0
    assert ref.cvar_best_set == {0}
    assert ref.cvar_tau == 2.0


def test_brute_force_grid_gap():
    for seed in range(6):
        obj = random_instance(seed, size=5)
        cfg = SgaConfig(alpha=0.35, gamma=obj.gamma_hint,
                        delta=obj.gamma_hint / 9, samples=50, seed=4)
        sc = obj.sample_scenarios(cfg.samples, cfg.seed)
        ref = brute_force_opt(obj, obj.matroid, sc, cfg.alpha, cfg.tau_grid())
        # the grid maximum sits within one spacing of the grid-free optimum
        assert ref.h_star <= ref.cvar_star + 1e-9
        assert ref.h_star >= ref.cvar_star - cfg.delta - 1e-9
        best_u = obj.utilities(ref.cvar_best_set, sc)
        assert ref.cvar_star == pytest.approx(empirical_cvar(best_u, cfg.alpha))
        # greedy can never beat the exhaustive maximum on the same grid
        result = run_sga(obj, obj.matroid, cfg, scenarios=sc)
        assert result.h_value <= ref.h_star + 1e-9


def test_brute_force_input_validation():
    obj, matroid = two_weight_objective()
    sc = obj.sample_scenarios(4, 0)
    with pytest.raises(ValueError):
        brute_force_opt(obj, matroid, sc, 0.5, [])
    with pytest.raises(ValueError):
        brute_force_opt(obj, matroid, sc, 0.5, [-1.0, 0.0])
    for bad in ([float("nan"), 1.0], [float("inf")], [0.0, -float("inf")]):
        with pytest.raises(ValueError, match="finite"):
            brute_force_opt(obj, matroid, sc, 0.5, bad)


def test_auxiliary_curvature_rejects_bad_taus():
    obj = random_instance(1, size=6)
    sc = obj.sample_scenarios(20, 0)
    for method in ("total_over_ground_set", "exact_matroid_enumeration"):
        for bad in ([float("nan")], [1.0, float("inf")]):
            with pytest.raises(ValueError, match="finite"):
                auxiliary_curvature(obj, obj.matroid, sc, bad, method=method)
        with pytest.raises(ValueError, match="nonnegative"):
            auxiliary_curvature(obj, obj.matroid, sc, [-1.0, 2.0], method=method)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5),
       samples=st.integers(1, 300), taus=st.integers(1, 9),
       budget=st.sampled_from([1, 5, 64, 2000, 2**14]))
def test_sample_sums_match_per_set_sums(seed, rows, samples, taus, budget):
    # every tau of every row, also the last one of an odd-length grid
    rng = np.random.default_rng(seed)
    block = rng.uniform(0.0, 10.0, (rows, samples))
    grid = np.sort(rng.uniform(0.0, 10.0, taus))
    with mock.patch.object(sga, "_BLOCK_FLOATS", budget):
        shortfall = sga._sample_sums(block, grid, sga._shortfall)
        clipped = sga._sample_sums(block, grid, np.minimum)
    for u, s, c in zip(block, shortfall, clipped):
        assert np.array_equal(
            s, np.maximum(grid[None, :] - u[:, None], 0.0).sum(axis=0))
        assert np.array_equal(c, np.minimum(u[:, None], grid[None, :]).sum(axis=0))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 10),
       kind=st.sampled_from(["uniform", "partition"]), copies=st.integers(1, 2),
       alpha=st.sampled_from([0.001, 0.05, 0.3, 1.0]),
       samples=st.integers(1, 300),
       grid=st.sampled_from(["zero", "single", 1.0, 0.4, 1 / 7, 0.05]),
       budget=st.sampled_from([None, 1, 5, 64, 2000]))
def test_blocked_scoring_matches_per_set_reference(seed, size, kind, copies, alpha,
                                                   samples, grid, budget):
    if copies == 1:
        obj = random_instance(seed, size=size, matroid_kind=kind)
    else:  # clones tie exactly, so the first-maximum tie-breaks are exercised
        base = random_instance(seed, size=(size + 1) // 2, matroid_kind=kind)
        rng = np.random.default_rng(seed)
        obj = ClonedObjective(base, random_matroid(
            rng, GroundSet(copies * base.ground.size), kind))
    gamma = obj.gamma_hint
    if grid == "zero":
        taus = [0.0]
    elif grid == "single":
        taus = [0.37 * gamma]
    else:
        taus = SgaConfig(alpha=alpha, gamma=gamma, delta=grid * gamma,
                         samples=1).tau_grid()
    sc = obj.sample_scenarios(samples, seed)
    # a budget of a few floats splits the blocks over sets and over taus
    with mock.patch.object(sga, "_BLOCK_FLOATS", budget or sga._BLOCK_FLOATS):
        ours = brute_force_opt(obj, obj.matroid, sc, alpha, taus)
        curvatures = [auxiliary_curvature(obj, obj.matroid, sc, taus, method=m)
                      for m in ("total_over_ground_set", "exact_matroid_enumeration")]
    ref = reference_brute_force_opt(obj, obj.matroid, sc, alpha, taus)
    assert ours.best_set == ref.best_set
    assert ours.cvar_best_set == ref.cvar_best_set
    for name in ("best_tau", "h_star", "cvar_tau", "cvar_star"):
        assert repr(getattr(ours, name)) == repr(getattr(ref, name)), name
    for curvature in curvatures:
        expected = reference_auxiliary_curvature(obj, obj.matroid, sc, taus,
                                                 method=curvature.method)
        assert curvature.value == expected.value
        assert repr(curvature.value) == repr(expected.value)


# ---------------------------------------------------------------- guarantee

def test_additive_penalty_formula():
    assert additive_penalty(0.5, 10.0, 0.5) == pytest.approx((0.5 / 1.5) * 10.0)
    assert additive_penalty(0.5, 10.0, 1.0) == 0.0
    assert additive_penalty(0.0, 10.0, 0.2) == 0.0


def test_approximation_bound_arithmetic():
    cfg = SgaConfig(alpha=0.5, gamma=10.0, delta=1.0, samples=5)
    report = approximation_bound(Curvature(0.5, "supplied"), cfg, h_star=5.0)
    assert report.multiplicative == pytest.approx(2.0 / 3.0)
    assert report.delta_term == pytest.approx(2.0 / 3.0)
    assert report.additive == pytest.approx(10.0 / 3.0)
    assert report.certified_lower_bound == pytest.approx(
        (5.0 - 1.0) * (2.0 / 3.0) - 10.0 / 3.0)
    assert isinstance(report, BoundReport)
    with pytest.raises(ValueError):
        approximation_bound(1.5, cfg)


def test_bound_without_reference():
    cfg = SgaConfig(alpha=1.0, gamma=4.0, delta=1.0, samples=5)
    report = approximation_bound(0.0, cfg)
    assert report.certified_lower_bound is None
    assert report.additive == 0.0
    assert report.multiplicative == 1.0


# ------------------------------------------------- scalarized curvature

def test_auxiliary_curvature_modular_is_zero():
    obj, matroid = two_weight_objective()
    sc = obj.sample_scenarios(6, 0)
    c = auxiliary_curvature(obj, matroid, sc, [0.0, 5.0])
    assert c.value == 0.0  # min(f, tau) stays modular below every utility
    assert auxiliary_curvature(obj, matroid, sc, [0.0]).value == 0.0


def test_auxiliary_curvature_matches_direct_measurement():
    # at a single tau the scalarized objective is just G(S) = sum min(u, tau);
    # compare against the generic curvature routines applied to that closure
    for seed in (3, 8, 15):
        obj = random_instance(seed, size=5)
        sc = obj.sample_scenarios(40, seed=6)
        tau = 0.35 * obj.gamma_hint

        def g(s):
            return float(np.minimum(obj.utilities(s, sc), tau).sum())

        ours = auxiliary_curvature(obj, obj.matroid, sc, [tau])
        theirs = total_curvature(g, obj.ground)
        assert ours.value == pytest.approx(theirs.value, abs=1e-12)
        exact = auxiliary_curvature(obj, obj.matroid, sc, [tau],
                                    method="exact_matroid_enumeration")
        direct = matroid_curvature(g, obj.matroid)
        assert exact.value == pytest.approx(direct.value, abs=1e-12)
        assert exact.value <= ours.value + 1e-12 or not obj.matroid.is_independent(
            frozenset(obj.ground.elements))


def test_auxiliary_curvature_is_max_over_grid():
    obj = random_instance(41, size=5)
    sc = obj.sample_scenarios(30, seed=1)
    taus = [0.0, 0.2 * obj.gamma_hint, 0.6 * obj.gamma_hint, obj.gamma_hint]
    combined = auxiliary_curvature(obj, obj.matroid, sc, taus)
    singles = [auxiliary_curvature(obj, obj.matroid, sc, [t]).value
               for t in taus if t > 0]
    assert combined.value == pytest.approx(max(singles))
    with pytest.raises(ValueError, match="method"):
        auxiliary_curvature(obj, obj.matroid, sc, taus, method="guess")


def test_certified_bound_holds_smoke():
    # small version of the acceptance sweep: the certified lower bound,
    # anchored at the grid-free optimum, must never exceed what the solver
    # actually achieves
    for seed in (1, 5, 12, 19):
        obj = random_instance(seed, size=5)
        cfg = SgaConfig(alpha=0.3, gamma=obj.gamma_hint,
                        delta=obj.gamma_hint / 6, samples=60, seed=7)
        sc = obj.sample_scenarios(cfg.samples, cfg.seed)
        result = run_sga(obj, obj.matroid, cfg, scenarios=sc)
        ref = brute_force_opt(obj, obj.matroid, sc, cfg.alpha, cfg.tau_grid())
        curv = auxiliary_curvature(obj, obj.matroid, sc, cfg.tau_grid(),
                                   method="exact_matroid_enumeration")
        report = approximation_bound(curv, cfg, h_star=ref.cvar_star)
        assert result.h_value >= report.certified_lower_bound - 1e-9


# --------------------------------------------------------------- risk sweep

def test_alpha_sweep_table():
    obj = random_instance(47, size=5, matroid_kind="uniform")
    cfg = SgaConfig(alpha=0.5, gamma=obj.gamma_hint, delta=obj.gamma_hint / 6,
                    samples=80, seed=11)
    alphas = [0.1, 0.4, 1.0]
    table = alpha_sweep(obj, obj.matroid, cfg, alphas, eval_samples=200)
    assert [p.alpha for p in table.points] == alphas
    assert 0.0 <= table.curvature.value <= 1.0
    for p in table.points:
        assert p.result.config.alpha == p.alpha
        assert p.utilities.shape == (200,)
        assert p.utility_mean == pytest.approx(float(p.utilities.mean()))
        assert p.utility_std == pytest.approx(float(p.utilities.std()))
        assert p.additive_error == pytest.approx(additive_penalty(
            table.curvature.value, cfg.gamma, p.alpha))
    # the additive term decays with alpha and vanishes at alpha = 1
    adds = [p.additive_error for p in table.points]
    assert all(x >= y - 1e-12 for x, y in zip(adds, adds[1:]))
    assert adds[-1] == 0.0
    # objective value of the solution cannot drop as risk aversion relaxes
    hs = [p.result.h_value for p in table.points]
    assert all(x <= y + 1e-9 for x, y in zip(hs, hs[1:]))
    with pytest.raises(ValueError, match="risk level"):
        alpha_sweep(obj, obj.matroid, cfg, [])
