"""Solver sweep over the threshold grid: frozen small cases, determinism,
evaluation accounting, the brute-force reference and the guarantee report."""
from __future__ import annotations

import contextlib
import dataclasses
import logging
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvargreedy import (BoundReport, Curvature, GroundSet, ScenarioSet, SgaConfig,
                        StochasticObjective, UniformMatroid, additive_penalty, alpha_sweep,
                        approximation_bound, auxiliary_curvature,
                        brute_force_opt, empirical_cvar, run_sga, sga)
from cvargreedy.problems import SensorCoverage, VehicleAssignment
from cvargreedy.risk import auxiliary_scores
from cvargreedy.synthetic import (RandomCoverageObjective, random_instance,
                                  random_matroid)
from conftest import (ClonedObjective, ModularDeterministic, Offset, ShiftedRows,
                      enumerate_feasible, extension_candidates, greedy_maximize,
                      matroid_curvature, random_sensor,
                      reference_auxiliary_curvature, reference_brute_force_opt,
                      reference_run_sga, reference_solve, total_curvature,
                      with_failed_rows)


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


@pytest.mark.parametrize("field, bad", [("samples", 20.5), ("samples", True),
                                        ("samples", "20"), ("seed", 1.5),
                                        ("seed", True), ("seed", float("inf"))])
def test_config_rejects_non_integer_samples_and_seed(field, bad):
    good = dict(alpha=0.5, gamma=2.0, delta=1.0, samples=20, seed=1)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SgaConfig(**dict(good, **{field: bad}))
    config = SgaConfig(**dict(good, samples=20.0, seed=np.int64(1)))
    assert type(config.samples) is int and type(config.seed) is int
    assert config == SgaConfig(**good)


@pytest.mark.parametrize("field", ["alpha", "gamma", "delta"])
@pytest.mark.parametrize("bad", ["0.5", True, None, [0.5]])
def test_config_rejects_non_numbers(field, bad):
    good = dict(alpha=0.5, gamma=2.0, delta=1.0, samples=3)
    with pytest.raises(ValueError, match=f"^{field} must be a number, got "):
        SgaConfig(**dict(good, **{field: bad}))


def test_config_stores_floats():
    # ints, numpy scalars and fractions are read as floats, so the grid and
    # the bound never see another type
    config = SgaConfig(alpha=Fraction(1, 2), gamma=np.int64(2), delta=1, samples=3)
    assert all(type(v) is float for v in (config.alpha, config.gamma, config.delta))
    assert config == SgaConfig(alpha=0.5, gamma=2.0, delta=1.0, samples=3)
    assert [type(t) for t in config.tau_grid()] == [float] * 3
    assert approximation_bound(0.5, config) == approximation_bound(
        0.5, SgaConfig(alpha=0.5, gamma=2.0, delta=1.0, samples=3))


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


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sites=st.integers(1, 9),
       cells=st.integers(1, 40), select=st.integers(1, 9),
       alphas=st.lists(st.sampled_from([0.05, 0.2, 0.5, 1.0]), min_size=1,
                       max_size=3),
       spacing=st.sampled_from([1.0, 0.3, 1 / 9, 0.04]),
       samples=st.sampled_from([1, 5, 60, 300]), failures=st.booleans())
def test_sensor_sweep_matches_per_tau_reference(seed, sites, cells, select, alphas,
                                               spacing, samples, failures):
    # integer coverage counts tie often, which exercises the smallest-id rule
    obj = random_sensor(seed, sites, cells, select=min(select, sites))
    cfg = SgaConfig(alpha=alphas[0], gamma=obj.gamma_hint,
                    delta=spacing * obj.gamma_hint, samples=samples, seed=seed)
    sc = obj.sample_scenarios(samples, seed)
    if failures:
        sc = with_failed_rows(sc, np.arange(samples) % 3 == 0)
    refs = {}
    for alpha in alphas:
        at_alpha = dataclasses.replace(cfg, alpha=alpha)
        refs[alpha] = reference_run_sga(obj, obj.matroid, at_alpha, scenarios=sc)
        ours = run_sga(obj, obj.matroid, at_alpha, scenarios=sc)
        assert ours.sweep == refs[alpha].sweep
        assert ours == refs[alpha]
    if not failures:  # alpha_sweep draws its own batch from cfg.seed
        table = alpha_sweep(obj, obj.matroid, cfg, alphas)
        for point in table.points:
            assert point.result == refs[point.alpha]


def test_sensor_solve_scores_candidates_in_one_call(monkeypatch):
    obj = random_sensor(3, 12, 50, select=4)
    cfg = SgaConfig(alpha=0.3, gamma=obj.gamma_hint, delta=obj.gamma_hint / 10,
                    samples=200, seed=4)
    evaluated, batched = [], []
    utilities = SensorCoverage.utilities
    extension_utilities = SensorCoverage.extension_utilities

    def count_utilities(self, subset, scenarios):
        evaluated.append(frozenset(subset))
        return utilities(self, subset, scenarios)

    def count_extensions(self, groups, scenarios):
        batched.extend(len(candidates) for _, candidates in groups)
        return extension_utilities(self, groups, scenarios)

    monkeypatch.setattr(SensorCoverage, "utilities", count_utilities)
    monkeypatch.setattr(SensorCoverage, "extension_utilities", count_extensions)
    result = run_sga(obj, obj.matroid, cfg)
    # utilities sees only the empty set at the start of the sweep; every
    # candidate computed goes through the hook, all of a group's in one call
    # (the first step is one group of every point with all 12 sites), and a
    # saturated group computes its first candidate alone
    assert evaluated == [frozenset()]
    assert batched[0] == 12
    assert sum(batched) <= sum(p.evaluations - 2 for p in result.sweep)
    monkeypatch.undo()
    assert result == reference_run_sga(obj, obj.matroid, cfg)


def test_nan_utilities_rejected():
    obj = ModularDeterministic([float("nan")] * 3, UniformMatroid(GroundSet(3), 2))
    cfg = SgaConfig(alpha=0.5, gamma=2.0, delta=1.0, samples=4)
    with pytest.raises(ValueError, match=r"greedy step from \[\]: .*NaN"):
        run_sga(obj, obj.matroid, cfg)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vehicles=st.integers(1, 5),
       demands=st.integers(1, 3),
       alphas=st.lists(st.sampled_from([0.05, 0.2, 0.5, 1.0]), min_size=1,
                       max_size=3),
       spacing=st.sampled_from([1.0, 0.3, 1 / 9, 0.04]),
       samples=st.sampled_from([1, 5, 60, 300]))
def test_vehicle_sweep_matches_per_tau_reference(seed, vehicles, demands, alphas,
                                                spacing, samples):
    # with more vehicles than demands the greedy serves a demand several times
    obj = VehicleAssignment.generate(vehicles, demands, seed=seed)
    cfg = SgaConfig(alpha=alphas[0], gamma=obj.gamma_hint,
                    delta=spacing * obj.gamma_hint, samples=samples, seed=seed)
    refs = {}
    for alpha in alphas:
        at_alpha = dataclasses.replace(cfg, alpha=alpha)
        refs[alpha] = reference_run_sga(obj, obj.matroid, at_alpha)
        assert run_sga(obj, obj.matroid, at_alpha) == refs[alpha]
    for point in alpha_sweep(obj, obj.matroid, cfg, alphas).points:
        assert point.result == refs[point.alpha]


def differential_objective(family: str, rng: np.random.Generator, seed: int):
    """A small instance of one family, chosen for ties and near-ties."""
    def matroid(size):
        return random_matroid(rng, GroundSet(size), "mixed")

    if family == "vehicle":
        return VehicleAssignment.generate(int(rng.integers(1, 5)),
                                          int(rng.integers(1, 4)), seed=seed)
    if family == "sensor":
        sites = int(rng.integers(1, 9))
        return random_sensor(seed, sites, int(rng.integers(1, 30)),
                             select=int(rng.integers(1, sites + 1)))
    if family == "cloned":  # clones score exactly alike
        size = int(rng.integers(1, 5))
        return ClonedObjective(random_instance(seed, size=size), matroid(2 * size))
    if family == "shifted":  # rows that are permutations of one another
        return ShiftedRows(matroid(int(rng.integers(1, 8))),
                           scale=float(rng.choice([1e-3, 1.0, 1e4])))
    if family == "constant":  # constant rows, equal weights among them
        size = int(rng.integers(1, 7))
        return ModularDeterministic(rng.integers(0, 4, size) * 0.3, matroid(size))
    # utilities near 1e8 that differ far below their magnitude
    base = (VehicleAssignment.generate(3, 2, seed=seed) if family == "large-vehicle"
            else random_instance(seed, size=int(rng.integers(1, 7))))
    return Offset(base, 1e8)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["vehicle", "sensor", "cloned", "shifted", "constant",
                               "large-vehicle", "large-coverage"]),
       samples=st.integers(1, 1000),
       alphas=st.lists(st.sampled_from([0.001, 0.05, 0.3, 1.0]), min_size=1,
                       max_size=3, unique=True),
       grid=st.integers(1, 12), hits=st.integers(0, 8))
def test_screened_solve_matches_exact_scoring(seed, family, samples, alphas, grid, hits):
    rng = np.random.default_rng(seed)
    obj = differential_objective(family, rng, seed)
    sc = obj.sample_scenarios(samples, seed)
    n = obj.ground.size
    full = obj.utilities(frozenset(range(n)), sc)
    # a grid over the utility range, sample values of random sets (ties with
    # the data) and their neighbours one ulp away
    taus = set(np.linspace(0.0, 1.05 * full.max(), grid).tolist())
    taus.update(np.linspace(full.min(), full.max(), grid).tolist())
    for _ in range(hits):
        subset = frozenset(rng.choice(n, int(rng.integers(0, n + 1)), replace=False).tolist())
        value = float(obj.utilities(subset, sc)[rng.integers(samples)])
        taus.update([value, float(np.nextafter(value, np.inf)),
                     max(0.0, float(np.nextafter(value, 0.0)))])
    points = [(alpha, tau) for alpha in alphas for tau in sorted(taus)]
    with mock.patch.object(sga, "_SCREEN_MIN_FLOATS", 0):
        ours = sga._solve(obj, obj.matroid, sc, points)
    assert ours == reference_solve(obj, obj.matroid, sc, points)


def batch_scores(rows, batch, taus, alphas):
    """``_batch_scores`` of ``batch``, whose groups' members are ascending:
    its tables, the masks of the pairs that its one ``_exact_pairs`` pass
    scored, and its counts."""
    marked, exact_pairs = [], sga._exact_pairs

    def record(rows, r, c, *args):
        marked.append((r, c))
        return exact_pairs(rows, r, c, *args)

    counts = dict.fromkeys(("pairs", "exact", "small"), 0)
    with mock.patch.object(sga, "_exact_pairs", record):
        tables = sga._batch_scores(rows, batch, taus, alphas, counts)
    [(r, c)] = marked
    masks, start = [], 0
    for (members, _, candidates, _), table in zip(batch, tables):
        mine = (start <= r) & (r < start + len(candidates))
        masks.append(np.zeros(table.shape, dtype=bool))
        masks[-1][r[mine] - start, np.searchsorted(members, c[mine])] = True
        start += len(candidates)
    return tables, masks, counts


def group_scores(rows, taus, alphas, floor=None):
    """The table and mask of ``batch_scores`` for one group of every point."""
    group = (np.arange(taus.size), frozenset(), [None] * len(rows), floor)
    [table], [exact], _ = batch_scores(rows, [group], taus, alphas)
    return table, exact


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), copies=st.integers(2, 8),
       n=st.sampled_from([50, 1000]), m=st.integers(1, 4))
def test_screen_keeps_the_exact_winner_of_near_ties(seed, copies, n, m):
    # permuted copies of one row, each with one sample moved by up to 200
    # ulps: the sorted-prefix ranking often orders them unlike the exact
    # kernel, whose values differ only in the last bits
    rng = np.random.default_rng(seed)
    base = rng.random(n) * 100
    taus = np.quantile(base, rng.uniform(0.3, 0.95, m))
    alphas = rng.choice([0.001, 0.1, 1.0], m)
    rows = np.array([rng.permutation(base) for _ in range(copies)])
    for row in rows:
        i = rng.integers(n)
        row[i] += rng.integers(-200, 201) * np.spacing(row[i])
    expected = np.array([auxiliary_scores(u, taus, alphas) for u in rows])
    with mock.patch.object(sga, "_SCREEN_MIN_FLOATS", 0):
        table, exact = group_scores(rows, taus, alphas)
    assert np.array_equal(table.argmax(axis=0), expected.argmax(axis=0))
    assert np.array_equal(table.max(axis=0), expected.max(axis=0))
    assert np.array_equal(table[exact], expected[exact])


@pytest.mark.parametrize("bad", [None, float("inf"), -float("inf"), float("nan"), -1e308])
def test_small_and_non_finite_groups_are_scored_exactly(bad):
    # 7 rows x 1000 samples x 9 taus is below the size rule; with a bad
    # sample the group is screened (x 10 taus) but still scored exactly, the
    # pairs in chunks of 16 (_GROUP_FLOATS // 1000)
    rng = np.random.default_rng(3)
    rows = rng.random((7, 1000)) * 10
    taus = np.linspace(0.0, 9.0, 10)
    alphas = np.resize([0.1, 0.5, 1.0], 10)
    if bad is None:
        taus, alphas = taus[:9], alphas[:9]
        assert taus.size * 1000 < sga._SCREEN_MIN_FLOATS
    else:
        assert taus.size * 1000 >= sga._SCREEN_MIN_FLOATS
        rows[4, 10:14] = bad  # four samples of -1e308 overflow the prefix sum
    with np.errstate(invalid="ignore", over="ignore"):  # in the exact kernel too
        expected = np.array([auxiliary_scores(u, taus, alphas) for u in rows])
        table, exact = group_scores(rows, taus, alphas)
    assert exact.all()
    assert np.array_equal(table, expected, equal_nan=True)


@pytest.mark.parametrize("samples, pairs", [(1000, 50), (1000, 200), (60, 100),
                                             (1000, 9)])
@pytest.mark.parametrize("bad", [None, float("inf"), -float("inf"), float("nan")])
def test_one_row_group_matches_the_one_vector_kernel(samples, pairs, bad):
    # a group of one row: each pair is either k = 0 (taus at or below the
    # row's minimum), where the screen is exact, or rescored by the kernel,
    # so the table is the one-vector kernel's whether the group is screened
    # or not. The first two sizes are screened.
    rng = np.random.default_rng(samples + pairs)
    row = rng.uniform(1.0, 10.0, samples)
    if bad is not None:
        row[5] = bad
    low = np.nanmin(np.where(np.isinf(row), np.nan, row))
    taus = np.concatenate([[0.0, low / 2, low], row[rng.integers(samples, size=5)],
                           rng.uniform(0.0, 11.0, pairs - 8)])
    alphas = np.resize([0.05, 0.3, 1.0], pairs)
    with np.errstate(invalid="ignore"):
        expected = auxiliary_scores(row, taus, alphas)
        table, exact = group_scores(row[None], taus, alphas)
    assert np.array_equal(table[0], expected, equal_nan=True)
    screened = pairs * samples >= sga._SCREEN_MIN_FLOATS and bad is None
    assert exact.all() != screened


class Baseline(StochasticObjective):
    """base(S) plus one fixed row for every set, the empty set too."""

    def __init__(self, base, floor):
        self.base, self.floor = base, floor
        self.ground, self.matroid = base.ground, base.matroid
        self.gamma_hint = base.gamma_hint + float(floor.max())

    def sample_scenarios(self, count, seed):
        return self.base.sample_scenarios(count, seed)

    def utilities(self, subset, scenarios):
        return self.base.utilities(subset, scenarios) + self.floor


@pytest.mark.parametrize("samples, grid", [(1000, 50), (1000, 2), (60, 100)])
def test_empty_set_is_scored_by_the_exact_kernel(samples, grid):
    # no output shows H(empty) but the first pick's gain, so check the
    # values _solve hands to greedy_sweep against the one-vector kernel
    base = VehicleAssignment.generate(3, 2, seed=samples)
    obj = Baseline(base, np.random.default_rng(grid).uniform(0.0, 5.0, samples))
    sc = obj.sample_scenarios(samples, 1)
    points = [(alpha, tau) for alpha in (0.1, 1.0)
              for tau in np.linspace(0.0, obj.gamma_hint, grid).tolist()]
    seen, sweep = [], sga.greedy_sweep

    def record(score, matroid, initial, *args):
        seen.append(initial)
        return sweep(score, matroid, initial, *args)

    with mock.patch.object(sga, "greedy_sweep", record):
        ours = sga._solve(obj, obj.matroid, sc, points)
    alphas, taus = np.array(points).T
    [initial] = seen
    assert np.array_equal(initial, auxiliary_scores(obj.floor, taus, alphas))
    assert ours == reference_solve(obj, obj.matroid, sc, points)


def test_screen_leaves_non_finite_rows_to_the_exact_kernel():
    matroid = UniformMatroid(GroundSet(3), 2)
    nan = ModularDeterministic([float("nan")] * 3, matroid)
    cfg = SgaConfig(alpha=0.5, gamma=2.0, delta=0.5, samples=4)
    with mock.patch.object(sga, "_SCREEN_MIN_FLOATS", 0):
        with pytest.raises(ValueError, match=r"greedy step from \[\]: .*NaN"):
            run_sga(nan, matroid, cfg)
        # an infinite row goes to the exact kernel; so does a group whose
        # prefix sum overflows (4 x 1e308), without a warning
        for weights in ([float("inf"), 1.0, 2.0], [1e308, 1.0, 2.0]):
            obj = ModularDeterministic(weights, matroid)
            sc = obj.sample_scenarios(4, 0)
            points = [(0.5, t) for t in cfg.tau_grid()]
            assert (sga._solve(obj, matroid, sc, points)
                    == reference_solve(obj, matroid, sc, points))


def test_solve_logs_screened_and_rescored_pairs(caplog, capsys, monkeypatch):
    obj = VehicleAssignment.generate(5, 3, seed=2)
    cfg = SgaConfig(alpha=0.2, gamma=obj.gamma_hint, delta=obj.gamma_hint / 30,
                    samples=500, seed=1)
    rows = []
    extension_utilities = VehicleAssignment.extension_utilities

    def count_rows(self, groups, scenarios):
        rows.append(sum(len(candidates) for _, candidates in groups))
        return extension_utilities(self, groups, scenarios)

    monkeypatch.setattr(VehicleAssignment, "extension_utilities", count_rows)
    with caplog.at_level(logging.DEBUG, logger="cvargreedy"):
        result = run_sga(obj, obj.matroid, cfg)
    monkeypatch.undo()
    assert result == reference_run_sga(obj, obj.matroid, cfg)
    [record] = caplog.records
    assert (record.name, record.levelname) == ("cvargreedy", "DEBUG")
    pairs, exact, skipped, small, computed, calls, stale, settled = map(
        int, re.findall(r"\d+", record.getMessage()))
    # every candidate of every step at every point is a pair scored or
    # skipped; the first group holds all 31 points (31 x 500 floats, above
    # the size rule) and screens most of its pairs out; groups of fewer than
    # 20 points stay below the rule and are scored exactly
    assert pairs + skipped == sum(p.evaluations - 2 for p in result.sweep)
    assert pairs >= 31 * obj.ground.size
    assert 0 < exact < pairs
    assert small > 0
    # the low taus saturate: their groups compute one row, and each settled
    # pick skips at least one candidate
    assert computed == sum(rows)
    assert calls == len(rows)
    assert 0 < settled <= skipped
    # 15 candidates x 500 samples is below the stale-bound size rule
    assert stale == 0
    assert capsys.readouterr().out == ""


def test_saturated_group_computes_only_its_first_candidate(monkeypatch):
    # at tau = 0 every set of nonnegative utilities has H = 0 = tau, so each
    # step of the sweep is one saturated group, settled from one row
    obj = VehicleAssignment.generate(4, 3, seed=5)
    sc = obj.sample_scenarios(200, 3)
    points = [(0.1, 0.0), (0.5, 0.0)]
    calls = []
    extension_utilities = VehicleAssignment.extension_utilities

    def record(self, groups, scenarios):
        calls.extend((subset, list(candidates)) for subset, candidates in groups)
        return extension_utilities(self, groups, scenarios)

    monkeypatch.setattr(VehicleAssignment, "extension_utilities", record)
    ours = sga._solve(obj, obj.matroid, sc, points)
    monkeypatch.undo()
    assert ours == reference_solve(obj, obj.matroid, sc, points)
    assert len(calls) == len(ours[0].selected) > 1
    for subset, candidates in calls:
        assert candidates == [min(extension_candidates(obj.matroid, subset))]


def test_saturated_first_step_of_a_lazy_sweep():
    # at tau = 0 the first group is saturated, and with the size rule at 0
    # it keeps gains too: its first row is its one score, and the gains
    # it keeps feed the later steps
    obj = VehicleAssignment.generate(4, 3, seed=5)
    sc = obj.sample_scenarios(200, 3)
    for points in ([(0.1, 0.0), (0.5, 0.0)], [(0.1, 0.0), (0.5, 0.0), (0.5, 5.0)]):
        ours, counts = stale_counts(obj, sc, points)
        assert ours == reference_solve(obj, obj.matroid, sc, points)


def test_saturated_group_falls_back_when_its_first_candidate_falls_short(monkeypatch):
    # a negative weight makes the objective non-monotone: at tau = 0 the
    # empty set sits at H = 0, element 0 drops below it and element 1 reaches it
    obj = ModularDeterministic([-1.0, 2.0, 0.0, 3.0], UniformMatroid(GroundSet(4), 2))
    sc = obj.sample_scenarios(5, 0)
    points = [(0.5, 0.0)]
    calls = []
    extension_utilities = ModularDeterministic.extension_utilities

    def record(self, groups, scenarios):
        calls.extend((subset, list(candidates)) for subset, candidates in groups)
        return extension_utilities(self, groups, scenarios)

    monkeypatch.setattr(ModularDeterministic, "extension_utilities", record)
    ours = sga._solve(obj, obj.matroid, sc, points)
    monkeypatch.undo()
    assert ours == reference_solve(obj, obj.matroid, sc, points)
    assert ours[0].selected == {0, 1}
    assert calls == [(frozenset(), [0]), (frozenset(), [1, 2, 3]), (frozenset({1}), [0])]


# ------------------------------------------------------ stale-gain bounds

class DeclaredShiftedRows(ShiftedRows):
    """``ShiftedRows`` with its rounding declared: a sum of at most |X|
    nonnegative terms from zero errs by gamma_{|X|-1} times itself. Its rows
    tie up to rounding, so stale bounds meet near-ties."""

    def __init__(self, matroid, scale: float = 1.0):
        super().__init__(matroid, scale)
        self.utility_rounding = sga._gamma(self.ground.size)


class DeclaredOffset(Offset):
    """``Offset`` of a declared base: the add of the offset rounds once more."""

    def __init__(self, base, offset: float):
        super().__init__(base, offset)
        self.utility_rounding = base.utility_rounding + 2.0**-52


class NoisyModular(StochasticObjective):
    """Element e acts as element e mod ``base`` of a modular utility with
    random weights per sample, computed with a relative error of +-0.999*rho
    whose sign depends on the set and the sample. The declared rounding rho
    dwarfs the kernel's, and clones tie in real arithmetic but not as
    computed."""

    def __init__(self, matroid, base: int, rho: float):
        self.ground, self.matroid, self.base = matroid.ground, matroid, base
        self.gamma_hint = float(matroid.ground.size)
        self.utility_rounding = rho

    def sample_scenarios(self, count, seed):
        rng = np.random.default_rng(seed)
        return ScenarioSet(rng.random((count, self.base)), count, int(seed))

    def utilities(self, subset, scenarios):
        subset = self.ground.check_subset(subset)
        real = np.zeros(len(scenarios))
        for e in sorted(subset):
            real += scenarios.data[:, e % self.base]
        mask = sum(1 << e for e in subset)
        sign = np.random.default_rng([mask, scenarios.seed]).choice([-1.0, 1.0], real.size)
        return real * (1 + 0.999 * self.utility_rounding * sign)


def stale_counts(obj, sc, points) -> tuple[list, dict]:
    """``sga._solve`` with every group lazy, and the counts it gave greedy_sweep."""
    seen, sweep = {}, sga.greedy_sweep

    def record(*args):
        out = sweep(*args)
        seen.update(args[-1])
        return out

    with mock.patch.object(sga, "_LAZY_MIN_FLOATS", 0), \
            mock.patch.object(sga, "greedy_sweep", record):
        ours = sga._solve(obj, obj.matroid, sc, points)
    return ours, seen


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["vehicle", "sensor"]),
       alphas=st.lists(st.sampled_from([0.05, 0.2, 0.5, 1.0]), min_size=1,
                       max_size=3, unique=True),
       spacing=st.sampled_from([1.0, 0.3, 1 / 9, 0.04]),
       samples=st.sampled_from([1, 5, 60, 300]))
def test_stale_bounds_match_the_per_tau_reference(seed, family, alphas, spacing, samples):
    # every group skips by stale gains; vehicles serve a demand several times
    # and sensor counts tie often, which exercises the smallest-id rule
    rng = np.random.default_rng(seed)
    if family == "vehicle":
        obj = VehicleAssignment.generate(int(rng.integers(1, 6)),
                                         int(rng.integers(1, 4)), seed=seed)
    else:
        sites = int(rng.integers(1, 10))
        obj = random_sensor(seed, sites, int(rng.integers(1, 40)),
                            select=int(rng.integers(1, sites + 1)))
    cfg = SgaConfig(alpha=alphas[0], gamma=obj.gamma_hint,
                    delta=spacing * obj.gamma_hint, samples=samples, seed=seed)
    with mock.patch.object(sga, "_LAZY_MIN_FLOATS", 0):
        table = alpha_sweep(obj, obj.matroid, cfg, alphas)
    for point in table.points:
        ours = point.result
        ref = reference_run_sga(obj, obj.matroid, dataclasses.replace(cfg, alpha=point.alpha))
        assert ours.sweep == ref.sweep
        assert ours.chosen_set == ref.chosen_set
        assert ours.chosen_tau == ref.chosen_tau
        assert ours.h_value == ref.h_value
        assert ours.oracle_evaluations == ref.oracle_evaluations


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["shifted", "large-vehicle", "large-sensor", "noisy"]),
       samples=st.integers(1, 400),
       alphas=st.lists(st.sampled_from([0.001, 0.05, 0.3, 1.0]), min_size=1,
                       max_size=3, unique=True),
       grid=st.integers(1, 12), screen=st.booleans())
def test_stale_bounds_hold_on_near_ties(seed, family, samples, alphas, grid, screen):
    # rows that are permutations of one another, utilities near 1e8 that
    # differ far below their magnitude, and clones computed with declared
    # errors: the stale bounds meet values equal up to rounding, which only
    # the margin covers. Past the top utility H is affine in the utilities,
    # so gains repeat exactly in real arithmetic; with the screen on, kept
    # gains are upper ends.
    rng = np.random.default_rng(seed)
    if family == "noisy":
        base = int(rng.integers(1, 4))
        obj = NoisyModular(random_matroid(rng, GroundSet(base * int(rng.integers(2, 4))),
                                          "mixed"), base, 1e-6)
    elif family == "shifted":
        obj = DeclaredShiftedRows(random_matroid(rng, GroundSet(int(rng.integers(2, 9))),
                                                 "mixed"),
                                  scale=float(rng.choice([1e-3, 1.0, 1e4])))
    elif family == "large-vehicle":
        obj = DeclaredOffset(VehicleAssignment.generate(int(rng.integers(2, 5)),
                                                        int(rng.integers(1, 4)),
                                                        seed=seed), 1e8)
    else:
        obj = DeclaredOffset(random_sensor(seed, int(rng.integers(2, 9)),
                                           int(rng.integers(1, 30))), 1e8)
    sc = obj.sample_scenarios(samples, seed)
    full = obj.utilities(frozenset(obj.ground.elements), sc)
    taus = set(np.linspace(0.0, 1.05 * full.max(), grid).tolist())
    taus.update(np.linspace(full.min(), full.max(), grid).tolist())
    points = [(alpha, tau) for alpha in alphas for tau in sorted(taus)]
    with mock.patch.object(sga, "_SCREEN_MIN_FLOATS", 0 if screen else 10**9):
        ours, _ = stale_counts(obj, sc, points)
    assert ours == reference_solve(obj, obj.matroid, sc, points)


@pytest.mark.parametrize("rho", [1e-6, 0.05])
def test_declared_rounding_widens_the_margin(rho):
    # clones of one element tie in real arithmetic, and their computed
    # values sit up to rho apart: only the margin's utility term keeps the
    # bound of a clone above its computed value
    obj = NoisyModular(UniformMatroid(GroundSet(6), 3), 1, rho)
    points = [(alpha, tau) for alpha in (0.3, 1.0) for tau in (1.0, 2.0, 4.0)]
    skipped = 0
    for seed in range(40):
        sc = obj.sample_scenarios(3, seed)
        ours, counts = stale_counts(obj, sc, points)
        assert ours == reference_solve(obj, obj.matroid, sc, points)
        skipped += counts["stale"] > 0
    assert skipped > 0


def test_stale_bounds_skip_rows_and_keep_every_output():
    obj = VehicleAssignment.generate(6, 5, seed=3)
    cfg = SgaConfig(alpha=0.2, gamma=obj.gamma_hint, delta=obj.gamma_hint / 20,
                    samples=300, seed=4)
    sc = obj.sample_scenarios(cfg.samples, cfg.seed)
    points = [(cfg.alpha, tau) for tau in cfg.tau_grid()]
    ours, counts = stale_counts(obj, sc, points)
    assert ours == reference_solve(obj, obj.matroid, sc, points)
    assert counts["stale"] > 0
    assert counts["rows"] < sum(p.evaluations - 2 for p in ours)


def test_objective_without_a_declared_bound_computes_todays_rows(monkeypatch):
    # with the size rule at 0 every group of a declared objective is lazy;
    # the same objective undeclared computes what the size rule out of
    # reach computes: one call per group, or the settle rule
    obj = VehicleAssignment.generate(6, 5, seed=3)
    bare = VehicleAssignment.generate(6, 5, seed=3)
    bare.utility_rounding = None
    sc = obj.sample_scenarios(300, 4)
    points = [(0.2, tau) for tau in np.linspace(0.0, obj.gamma_hint, 21).tolist()]
    extension_utilities = VehicleAssignment.extension_utilities

    def calls(objective, size):
        made = []

        def record(self, groups, scenarios):
            made.extend((subset, list(candidates)) for subset, candidates in groups)
            return extension_utilities(self, groups, scenarios)

        monkeypatch.setattr(VehicleAssignment, "extension_utilities", record)
        with mock.patch.object(sga, "_LAZY_MIN_FLOATS", size):
            result = sga._solve(objective, objective.matroid, sc, points)
        monkeypatch.undo()
        return made, result

    today, expected = calls(obj, 10**9)
    undeclared, result = calls(bare, 0)
    lazy, lazy_result = calls(obj, 0)
    assert undeclared == today
    assert result == lazy_result == expected
    assert sum(len(c) for _, c in lazy) < sum(len(c) for _, c in today)


@pytest.mark.parametrize("rho", [-0.1, 1.0, float("nan")])
def test_declared_rounding_is_checked(rho):
    obj = VehicleAssignment.generate(2, 2, seed=1)
    obj.utility_rounding = rho
    sc = obj.sample_scenarios(10, 0)
    with pytest.raises(ValueError, match="utility_rounding must lie in"):
        sga._solve(obj, obj.matroid, sc, [(0.5, 1.0)])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), copies=st.integers(1, 8),
       n=st.sampled_from([50, 1000]), m=st.integers(1, 4))
def test_upper_ends_bound_every_exact_value(seed, copies, n, m):
    # near-tied rows, as in the screen test above: the screen ranks them in
    # another order than the exact kernel, so only H~ + M' bounds the
    # screened pairs; the table holds it wherever it holds no exact value
    rng = np.random.default_rng(seed)
    base = rng.random(n) * 100
    taus = np.quantile(base, rng.uniform(0.0, 1.0, m))
    alphas = rng.choice([0.001, 0.1, 1.0], m)
    rows = np.array([rng.permutation(base) for _ in range(copies)])
    for row in rows:
        i = rng.integers(n)
        row[i] += rng.integers(-200, 201) * np.spacing(row[i])
    # and scaled copies that the screen rules out, whose H~ and exact value
    # differ in the last bits either way
    rows = np.vstack([rows, rows * rng.uniform(0.2, 0.9, (copies, 1))])
    expected = np.array([auxiliary_scores(u, taus, alphas) for u in rows])
    with mock.patch.object(sga, "_SCREEN_MIN_FLOATS", 0):
        table, exact = group_scores(rows, taus, alphas, np.full(m, -np.inf))
        assert np.array_equal(group_scores(rows, taus, alphas)[0], table)
    assert (table >= expected).all()
    assert np.array_equal(table[exact], expected[exact])


def test_one_exact_pass_scores_every_kind_of_group():
    # one hook call of four groups: screened with a floor, screened without
    # one, and two below the size rule; the groups' points are disjoint
    rng = np.random.default_rng(8)
    base = rng.random(1000) * 10
    rows = np.vstack([rng.random((20, 1000)) * 10,
                      [rng.permutation(base) for _ in range(6)],  # near ties
                      rng.random((9, 1000)) * 10,
                      rng.random((4, 1000)) * 10, rng.random((3, 1000)) * 10])
    taus = rng.uniform(2.0, 8.0, 29)
    alphas = rng.choice([0.05, 0.2, 1.0], 29)
    members = [np.arange(12), np.arange(12, 24), np.arange(24, 27), np.arange(27, 29)]
    heights = [20, 15, 4, 3]
    starts = np.cumsum(heights) - heights
    expected = [np.array([auxiliary_scores(u, taus[m], alphas[m])
                          for u in rows[a:a + h]])
                for m, a, h in zip(members, starts, heights)]
    # the floor: below the group's exact maximum, at it, and above it
    top = expected[0].max(axis=0)
    floor = np.resize([-np.inf, 0.0, 1.0], 12) + top
    floor[0::3] = np.sort(expected[0], axis=0)[-2, 0::3]
    assert members[0].size * 1000 >= sga._SCREEN_MIN_FLOATS > members[2].size * 1000
    batch = [(m, frozenset(), [None] * h, f)
             for m, h, f in zip(members, heights, [floor, None, None, None])]
    tables, masks, counts = batch_scores(rows, batch, taus, alphas)  # one exact pass
    assert counts == {"pairs": 12 * 35 + 3 * 4 + 2 * 3,
                      "exact": sum(map(np.count_nonzero, masks)), "small": 2}
    for k, (table, exact, mask) in enumerate(zip(tables, expected, masks)):
        assert (table >= exact).all()
        assert np.array_equal(table[mask], exact[mask])
        reach = exact.max(axis=0) >= (floor if k == 0 else -np.inf)
        assert np.array_equal(table.argmax(axis=0)[reach], exact.argmax(axis=0)[reach])
        assert np.array_equal(table.max(axis=0)[reach], exact.max(axis=0)[reach])
        if k == 0:  # where nothing reaches the floor, nothing passes it
            assert reach.any() and not reach.all()
            assert (table.max(axis=0)[~reach] < floor[~reach]).all()
            assert not mask[:, 2::3].any()  # nothing near a floor above the top
        assert mask.all() == (k >= 2)


def check_screen(rows, taus, alphas) -> np.ndarray:
    """A screened group's table gives the exact table's picks and picked
    values, the exact value at every pair it marks, and elsewhere upper ends
    at or above the exact values; returns the mask."""
    expected = np.array([auxiliary_scores(u, taus, alphas) for u in rows])
    assert taus.size * rows.shape[1] >= sga._SCREEN_MIN_FLOATS  # screened
    table, exact = group_scores(rows, taus, alphas, np.full(taus.size, -np.inf))
    assert np.array_equal(table.argmax(axis=0), expected.argmax(axis=0))
    assert np.array_equal(table.max(axis=0), expected.max(axis=0))
    assert np.array_equal(table[exact], expected[exact])
    assert (table >= expected).all()
    return exact


def test_screen_of_repeated_member_taus():
    # an alpha sweep at alphas [0.05, 0.05] puts every tau of a group twice
    rng = np.random.default_rng(4)
    rows = rng.random((40, 1000)) * 10
    grid = np.linspace(0.0, 8.0, 12)
    taus = np.concatenate([grid, grid[::-1]])
    exact = check_screen(rows, taus, np.full(taus.size, 0.05))
    assert not exact.all()
    # and through the solver: one candidate group holds both alphas' points
    obj = VehicleAssignment.generate(6, 4, seed=3)
    sc = obj.sample_scenarios(1000, 5)
    points = [(0.05, tau) for tau in np.linspace(0.0, obj.gamma_hint, 12).tolist()] * 2
    seen, screen = [], sga._screen

    def record(rows, taus, *args):
        seen.append((len(rows), taus.size))
        return screen(rows, taus, *args)

    with mock.patch.object(sga, "_screen", record):
        ours = sga._solve(obj, obj.matroid, sc, points)
    assert max(taus for _, taus in seen) == 24
    assert ours == reference_solve(obj, obj.matroid, sc, points)
    assert ours[:12] == ours[12:]


def test_screen_of_taus_above_a_chunks_last_row():
    # rows 15 and 19 close the two chunks of 16 rows (_GROUP_FLOATS // 1000);
    # the top taus sit at and above every one of their samples, so k = n on
    # the last row of each chunk
    assert sga._GROUP_FLOATS // 1000 == 16
    rng = np.random.default_rng(5)
    rows = rng.random((20, 1000)) * 10
    rows[[15, 19]] *= 0.5
    top = rows[[15, 19]].max(axis=1)
    taus = np.concatenate([np.linspace(0.0, 4.0, 9), top, [5.0, 10.0]])
    for row in rows[[15, 19]]:
        counts = np.searchsorted(np.sort(row), taus)
        assert 999 in counts and 1000 in counts
    check_screen(rows, taus, np.resize([0.05, 0.5, 1.0], taus.size))
    # one row alone: k = n on the chunk's only row
    check_screen(rows[15:16], taus, np.full(taus.size, 0.1))


def test_screen_of_equal_k_at_consecutive_taus():
    # integer samples: every row has one k for the taus 10.25, 10.5 and 10.75,
    # and ties within a row
    rng = np.random.default_rng(6)
    rows = rng.integers(0, 30, (24, 1000)).astype(float)
    taus = np.array([0.0, 10.25, 10.5, 10.75, 11.0, 20.5, 20.75, 29.5, 30.0, 31.0])
    counts = np.array([np.searchsorted(np.sort(u), taus) for u in rows])
    assert (counts[:, 1] == counts[:, 3]).all() and (counts[:, 5] == counts[:, 6]).all()
    exact = check_screen(rows, taus, np.full(taus.size, 0.2))
    assert not exact.all()


def test_screen_sends_an_overflowing_segment_sum_to_the_exact_kernel():
    # two samples of -1e308 below every tau overflow the first segment's sum;
    # the exact hinge sum stays finite at tau = 0
    rng = np.random.default_rng(7)
    rows = rng.random((20, 1000)) * 10
    taus = np.linspace(0.0, 9.0, 10)
    rows[17, 5:7] = -1e308
    with np.errstate(over="ignore"):  # the hinge terms past tau = 0 overflow too
        assert check_screen(rows, taus, np.full(taus.size, 0.5)).all()
    # a sum past the largest k overflows too, but no k reads it: the group
    # is screened as usual
    rows[17, 5:7] = 1e308
    with np.errstate(over="ignore"):
        assert not check_screen(rows, taus, np.full(taus.size, 0.5)).all()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["vehicle", "sensor", "coverage"]),
       alphas=st.lists(st.sampled_from([0.05, 0.2, 0.5, 1.0]), min_size=1,
                       max_size=4, unique=True),
       steps=st.integers(20, 120), samples=st.sampled_from([1, 7, 60, 200]))
def test_fine_grid_sweep_matches_the_references(seed, family, alphas, steps, samples):
    # a fine grid holds many low taus, which saturate and settle early
    rng = np.random.default_rng(seed)
    if family == "vehicle":
        obj = VehicleAssignment.generate(int(rng.integers(1, 5)),
                                         int(rng.integers(1, 4)), seed=seed)
    elif family == "sensor":
        sites = int(rng.integers(2, 9))
        obj = random_sensor(seed, sites, int(rng.integers(1, 30)),
                            select=int(rng.integers(1, sites + 1)))
    else:
        obj = random_instance(seed, size=int(rng.integers(2, 8)), matroid_kind="mixed")
    cfg = SgaConfig(alpha=alphas[0], gamma=obj.gamma_hint,
                    delta=obj.gamma_hint / steps, samples=samples, seed=seed)
    sc = obj.sample_scenarios(samples, seed)
    points = [(alpha, tau) for alpha in alphas for tau in cfg.tau_grid()]
    assert sga._solve(obj, obj.matroid, sc, points) == reference_solve(
        obj, obj.matroid, sc, points)
    for alpha in alphas:
        at_alpha = dataclasses.replace(cfg, alpha=alpha)
        assert run_sga(obj, obj.matroid, at_alpha) == reference_run_sga(
            obj, obj.matroid, at_alpha)


# ------------------------------------------------------ step-level scoring

def count_hook_calls(monkeypatch, cls) -> list[list[tuple]]:
    """A list that gets the (subset, candidates) groups of every
    ``extension_utilities`` call of ``cls``."""
    calls, hook = [], cls.extension_utilities

    def record(self, groups, scenarios):
        calls.append([(subset, list(candidates)) for subset, candidates in groups])
        return hook(self, groups, scenarios)

    monkeypatch.setattr(cls, "extension_utilities", record)
    return calls


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["coverage", "vehicle", "sensor"]),
       alphas=st.lists(st.sampled_from([0.05, 0.2, 0.5, 1.0]), min_size=1,
                       max_size=3, unique=True),
       spacing=st.sampled_from([1.0, 0.3, 1 / 9, 0.04]),
       samples=st.sampled_from([1, 5, 60, 300]), rows=st.sampled_from([None, 1, 3]))
def test_step_scoring_matches_the_per_tau_reference(seed, family, alphas, spacing, samples,
                                                   rows):
    # every group of a declared objective keeps gains, so the settle and the
    # stale-bound rules both run; a budget of 1 or 3 rows splits a step's
    # groups over several hook calls, and a group larger than it is a call
    # of its own
    rng = np.random.default_rng(seed)
    if family == "coverage":
        obj = random_instance(seed, size=int(rng.integers(1, 8)), matroid_kind="mixed")
    elif family == "vehicle":
        obj = VehicleAssignment.generate(int(rng.integers(1, 6)),
                                         int(rng.integers(1, 4)), seed=seed)
    else:
        sites = int(rng.integers(1, 10))
        obj = random_sensor(seed, sites, int(rng.integers(1, 40)),
                            select=int(rng.integers(1, sites + 1)))
    cfg = SgaConfig(alpha=alphas[0], gamma=obj.gamma_hint,
                    delta=spacing * obj.gamma_hint, samples=samples, seed=seed)
    budget = sga._BLOCK_FLOATS if rows is None else rows * samples
    with mock.patch.object(sga, "_LAZY_MIN_FLOATS", 0), \
            mock.patch.object(sga, "_BLOCK_FLOATS", budget):
        table = alpha_sweep(obj, obj.matroid, cfg, alphas)
    for point in table.points:
        ours = point.result
        ref = reference_run_sga(obj, obj.matroid, dataclasses.replace(cfg, alpha=point.alpha))
        assert ours.sweep == ref.sweep
        assert ours.chosen_set == ref.chosen_set
        assert ours.chosen_tau == ref.chosen_tau
        assert ours.h_value == ref.h_value
        assert ours.oracle_evaluations == ref.oracle_evaluations


def test_a_step_makes_at_most_two_hook_calls(monkeypatch, caplog):
    # random coverage keeps the default hook; at 60 samples every step of
    # every point fits one call, the saturated groups' fallback one more.
    # Only the empty set's utilities checks a set on its own: each hook call
    # checks its id rows once, in set_utilities
    obj = random_instance(3, size=9, matroid_kind="uniform")
    cfg = SgaConfig(alpha=0.3, gamma=obj.gamma_hint, delta=obj.gamma_hint / 40,
                    samples=60, seed=2)
    checks = {"subset": 0, "rows": 0}
    for name in checks:
        check = getattr(GroundSet, f"check_{name}")

        def counted(self, ids, check=check, name=name):
            checks[name] += 1
            return check(self, ids)
        monkeypatch.setattr(GroundSet, f"check_{name}", counted)
    calls = count_hook_calls(monkeypatch, StochasticObjective)
    with caplog.at_level(logging.DEBUG, logger="cvargreedy"):
        result = run_sga(obj, obj.matroid, cfg)
    monkeypatch.undo()
    assert result == reference_run_sga(obj, obj.matroid, cfg)
    steps = obj.matroid.k
    groups = [len(call) for call in calls]
    assert steps <= len(calls) <= 2 * steps
    assert sum(groups) > len(calls)  # steps of several groups share a call
    pairs, _, skipped, small, computed, logged, _, _ = map(
        int, re.findall(r"\d+", caplog.records[0].getMessage()))
    assert pairs + skipped == sum(p.evaluations - 2 for p in result.sweep)
    assert (logged, small) == (len(calls), sum(groups))
    assert computed == sum(len(c) for call in calls for _, c in call)
    assert checks == {"subset": 1, "rows": len(calls) + 1}


@pytest.mark.parametrize("rows", [1, 4, 13])
def test_hook_calls_take_whole_groups_within_the_budget(monkeypatch, rows):
    # a budget of rows x samples floats: a call takes whole groups while
    # their rows fit, and a larger group is a call of its own
    obj = VehicleAssignment.generate(4, 3, seed=5)
    sc = obj.sample_scenarios(50, 3)
    points = [(alpha, tau) for alpha in (0.1, 0.6)
              for tau in np.linspace(0.0, obj.gamma_hint, 15).tolist()]
    calls = count_hook_calls(monkeypatch, VehicleAssignment)
    with mock.patch.object(sga, "_BLOCK_FLOATS", rows * 50):
        ours = sga._solve(obj, obj.matroid, sc, points)
    monkeypatch.undo()
    assert ours == reference_solve(obj, obj.matroid, sc, points)
    sizes = [[len(c) for _, c in call] for call in calls]
    assert any(len(call) > 1 for call in sizes) == (rows > 1)
    for call in sizes:
        assert sum(call) <= rows or len(call) == 1


@pytest.mark.parametrize("run", ["run_sga", "alpha_sweep"])
def test_solver_rejects_a_matroid_of_another_ground(run):
    obj = random_instance(2, size=5)
    cfg = SgaConfig(alpha=0.5, gamma=obj.gamma_hint, delta=obj.gamma_hint / 4,
                    samples=10)
    other = UniformMatroid(GroundSet(6), 2)
    with pytest.raises(ValueError, match="has 6 elements, the objective's 5"):
        if run == "run_sga":
            run_sga(obj, other, cfg)
        else:
            alpha_sweep(obj, other, cfg, [0.5])


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


class NanInSet(ClonedObjective):
    """The base objective with one NaN sample in the utilities of the targets."""

    def __init__(self, base, matroid, *targets):
        super().__init__(base, matroid)
        self.targets = {frozenset(t) for t in targets}

    def utilities(self, subset, scenarios):
        u = super().utilities(subset, scenarios)
        if frozenset(subset) in self.targets:
            u[len(u) // 2] = np.nan
        return u


@pytest.mark.parametrize("budget", [None, 1, 50 * 3])
def test_brute_force_rejects_nan_utilities(budget):
    # np.argmax picks the NaN row of a block, which then never beat the best
    # so far: the whole block, the optimum {0, 2} too, was dropped silently
    base = random_instance(2, size=4, matroid_kind="uniform")
    matroid = UniformMatroid(GroundSet(4), 2)
    sc = base.sample_scenarios(50, 0)
    taus = SgaConfig(alpha=0.3, gamma=base.gamma_hint, delta=base.gamma_hint / 4,
                     samples=50).tau_grid()
    clean = brute_force_opt(ClonedObjective(base, matroid), matroid, sc, 0.3, taus)
    assert clean.best_set == {0, 2}
    obj = NanInSet(base, matroid, {0, 3})
    with mock.patch.object(sga, "_BLOCK_FLOATS", budget or sga._BLOCK_FLOATS):
        with pytest.raises(ValueError, match=r"H of the set \[0, 3\] is NaN"):
            brute_force_opt(obj, matroid, sc, 0.3, taus)


def _debug_record(records, prefix: str) -> str:
    [message] = [r.getMessage() for r in records if r.getMessage().startswith(prefix)]
    return message


def _grid_scored(records) -> tuple[int, int]:
    """(feasible sets, sets scored on the grid) of brute force's DEBUG record."""
    feasible, scored = map(int, re.findall(r"\d+", _debug_record(records, "brute force")))
    return feasible, scored


def test_pruned_brute_force_matches_per_set_reference(caplog):
    # alpha * n = 0.15 * 60 is 9 exactly, so H is flat between the 9th and
    # 10th order statistics, and a grid of 400 steps puts several taus on
    # that segment of the optimal set in 6 of these 12 cases: near ties over
    # tau. Clones tie exactly over sets.
    alpha, samples, flat = 0.15, 60, 0
    for seed in range(6):
        base = random_instance(seed, size=3 + seed % 3, matroid_kind="uniform")
        cloned = UniformMatroid(GroundSet(2 * base.ground.size), base.matroid.k + 1)
        for obj in (random_instance(seed, size=6 + seed % 5),
                    ClonedObjective(base, cloned)):
            sc = obj.sample_scenarios(samples, seed)
            taus = np.array(SgaConfig(alpha=alpha, gamma=obj.gamma_hint,
                                      delta=obj.gamma_hint / 400,
                                      samples=samples).tau_grid())
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="cvargreedy"):
                ours = brute_force_opt(obj, obj.matroid, sc, alpha, taus)
            ref = reference_brute_force_opt(obj, obj.matroid, sc, alpha, taus)
            for field in dataclasses.fields(ref):
                assert getattr(ours, field.name) == getattr(ref, field.name), field.name
            feasible, scored = _grid_scored(caplog.records)
            assert feasible == len(enumerate_feasible(obj.matroid))
            assert 0 < scored < feasible
            u = np.sort(obj.utilities(ours.best_set, sc))
            flat += np.count_nonzero((u[8] <= taus) & (taus <= u[9])) > 1
    assert flat == 6


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["vehicle", "sensor", "cloned", "shifted", "constant",
                               "large-vehicle", "large-coverage"]),
       samples=st.integers(1, 300), alpha=st.sampled_from([0.001, 0.05, 0.15, 0.3, 1.0]),
       grid=st.integers(1, 12), hits=st.integers(0, 8))
def test_pruned_brute_force_matches_on_near_ties(seed, family, samples, alpha, grid, hits):
    # taus on sample values and one ulp off them put grid H on the cvar
    # itself, where only the margin tells the sets apart; permuted rows
    # ("shifted") have equal cvars and grid H that differ in rounding
    rng = np.random.default_rng(seed)
    obj = differential_objective(family, rng, seed)
    sc = obj.sample_scenarios(samples, seed)
    rows = np.array([obj.utilities(s, sc) for s in enumerate_feasible(obj.matroid)])
    taus = set(np.linspace(0.0, 1.05 * rows.max(), grid).tolist())
    for _ in range(hits):
        value = float(rows[rng.integers(len(rows)), rng.integers(samples)])
        taus.update([value, float(np.nextafter(value, np.inf)),
                     max(0.0, float(np.nextafter(value, 0.0)))])
    taus = sorted(taus)
    assert (brute_force_opt(obj, obj.matroid, sc, alpha, taus)
            == reference_brute_force_opt(obj, obj.matroid, sc, alpha, taus))


class InfInSets(ClonedObjective):
    """The base objective with the first ``count`` samples +inf for some sets."""

    def __init__(self, base, matroid, counts):
        super().__init__(base, matroid)
        self.counts = {frozenset(s): c for s, c in counts.items()}

    def utilities(self, subset, scenarios):
        u = super().utilities(subset, scenarios)
        u[:self.counts.get(frozenset(subset), 0)] = np.inf
        return u


def test_infinite_utilities_are_scored_on_the_grid(caplog):
    # {1, 3} is +inf in every sample: its cvar is NaN (inf - inf in the
    # shifted tail sum) and never wins, but its grid H is tau, the grid
    # optimum. {0, 2} has 5 +inf samples past its tail, so a finite cvar but
    # an infinite margin. Both are scored on the grid however they compare.
    base = random_instance(2, size=4, matroid_kind="uniform")
    matroid = UniformMatroid(GroundSet(4), 2)
    obj = InfInSets(base, matroid, {(1, 3): 50, (0, 2): 5})
    sc = base.sample_scenarios(50, 0)
    taus = SgaConfig(alpha=0.3, gamma=base.gamma_hint, delta=base.gamma_hint / 8,
                     samples=50).tau_grid()
    for budget in (None, 50 * 3):
        caplog.clear()
        with mock.patch.object(sga, "_BLOCK_FLOATS", budget or sga._BLOCK_FLOATS), \
                caplog.at_level(logging.DEBUG, logger="cvargreedy"), \
                np.errstate(invalid="ignore"):
            ours = brute_force_opt(obj, matroid, sc, 0.3, taus)
            ref = reference_brute_force_opt(obj, matroid, sc, 0.3, taus)
        assert (ours.best_set, ours.h_star) == ({1, 3}, taus[-1])
        assert np.isfinite(ours.cvar_star) and ours.cvar_best_set != {1, 3}
        for field in dataclasses.fields(ref):
            assert getattr(ours, field.name) == getattr(ref, field.name), field.name
        assert _grid_scored(caplog.records)[1] < len(enumerate_feasible(matroid))


@pytest.mark.parametrize("budget", [None, 1, 50 * 3])
def test_brute_force_names_the_earliest_nan_set_after_the_cvar_optimum(budget):
    base = random_instance(2, size=4, matroid_kind="uniform")
    matroid = UniformMatroid(GroundSet(4), 2)
    sc = base.sample_scenarios(50, 0)
    taus = SgaConfig(alpha=0.3, gamma=base.gamma_hint, delta=base.gamma_hint / 4,
                     samples=50).tau_grid()
    family = enumerate_feasible(matroid)
    clean = brute_force_opt(ClonedObjective(base, matroid), matroid, sc, 0.3, taus)
    assert family.index(clean.cvar_best_set) < family.index(frozenset({1, 3}))
    obj = NanInSet(base, matroid, {2, 3}, {1, 3})
    with mock.patch.object(sga, "_BLOCK_FLOATS", budget or sga._BLOCK_FLOATS):
        with pytest.raises(ValueError, match=r"H of the set \[1, 3\] is NaN"):
            brute_force_opt(obj, matroid, sc, 0.3, taus)


def _rows_read(records) -> tuple[int, int, int]:
    """(rows read by the first pass, by the second, feasible sets) of exact
    curvature's DEBUG record; the passes' tau counts add up to the grid's
    positive taus, the first pass holding two of four or more and all of
    fewer."""
    first, family, low, second, high = map(
        int, re.findall(r"\d+", _debug_record(records, "exact curvature")))
    assert (low == 2 and high >= 2) or high == 0
    return first, second, family


@contextlib.contextmanager
def _debug_records():
    """The ``cvargreedy`` logger's records inside the block, at DEBUG; for
    hypothesis tests, which cannot take the function-scoped caplog."""
    records, logger = [], logging.getLogger("cvargreedy")
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _exact_curvature(obj, sc, taus, caplog):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cvargreedy"):
        ours = auxiliary_curvature(obj, obj.matroid, sc, taus,
                                   method="exact_matroid_enumeration")
    return ours, _rows_read(caplog.records)


def test_exact_curvature_stops_at_the_first_ratio_at_most_zero(caplog):
    # 6 of these 8 audit-like instances have curvature 1 and stop reading
    # the family early; the other 2 are below 1 and read all of it. Each
    # call builds the family's bitmasks once.
    masks, calls = sga.Matroid.feasible_masks, []

    def count_masks(self):
        calls.append(self)
        return masks(self)

    stopped, reads = [], []
    for seed in range(8):
        obj = random_instance(seed, size=6 + seed % 4)
        sc = obj.sample_scenarios(60, seed)
        taus = SgaConfig(alpha=0.3, gamma=obj.gamma_hint, delta=obj.gamma_hint / 8,
                         samples=60).tau_grid()
        calls.clear()
        with mock.patch.object(sga.Matroid, "feasible_masks", count_masks):
            ours, (first, second, family) = _exact_curvature(obj, sc, taus, caplog)
        assert calls == [obj.matroid]
        assert ours == reference_auxiliary_curvature(obj, obj.matroid, sc, taus,
                                                     method=ours.method)
        assert family == len(enumerate_feasible(obj.matroid))
        # the first pass (2 of 8 positive taus) stops where one pass over
        # every tau stopped; a call without a stop reads the family twice
        stopped.append(first < family and second == 0)
        assert stopped[-1] == (ours.value == 1.0)
        assert stopped[-1] or first == second == family
        reads.append(first)
    assert stopped.count(True) == 6
    assert reads == [32, 64, 93, 227, 42, 58, 93, 130]


def test_exact_curvature_matches_reference_on_negative_utilities(caplog):
    obj = random_instance(1, size=7)
    sc = obj.sample_scenarios(60, 1)
    taus = SgaConfig(alpha=0.3, gamma=obj.gamma_hint, delta=obj.gamma_hint / 8,
                     samples=60).tau_grid()
    assert _exact_curvature(obj, sc, taus, caplog)[0] == Curvature(
        1.0, "exact_matroid_enumeration")
    shifted = Offset(obj, -0.05)
    family = enumerate_feasible(obj.matroid)
    assert min(shifted.utilities(s, sc).min() for s in family) < 0
    ours, _ = _exact_curvature(shifted, sc, taus, caplog)
    assert ours == reference_auxiliary_curvature(shifted, obj.matroid, sc, taus,
                                                 method=ours.method)


def test_exact_curvature_raises_on_a_nan_before_the_stop(caplog):
    # the 99 sets of size <= 4 are read by size; the first ratio <= 0 is
    # among the 35 of size 3, so the read stops after 64 rows. The NaN of
    # {0, 1} comes before it, first among element 0's ratios, and raises;
    # the NaN of {3, 4, 5, 6}, the last set, lies past the stop and is never
    # read.
    base = random_instance(1, size=7)
    sc = base.sample_scenarios(60, 1)
    taus = SgaConfig(alpha=0.3, gamma=base.gamma_hint, delta=base.gamma_hint / 8,
                     samples=60).tau_grid()
    clean = _exact_curvature(ClonedObjective(base, base.matroid), sc, taus, caplog)
    assert clean == (Curvature(1.0, "exact_matroid_enumeration"), (64, 0, 99))
    with pytest.raises(ValueError, match="ratio of element 0 is NaN"):
        auxiliary_curvature(NanInSet(base, base.matroid, {0, 1}), base.matroid, sc, taus,
                            method="exact_matroid_enumeration")
    past = NanInSet(base, base.matroid, {3, 4, 5, 6})
    assert np.isnan(past.utilities(frozenset({3, 4, 5, 6}), sc)).any()
    assert _exact_curvature(past, sc, taus, caplog) == clean


def test_exact_curvature_below_one_reads_the_whole_family(caplog):
    obj = random_instance(4, size=6, matroid_kind="uniform")
    sc = obj.sample_scenarios(5, 11)
    taus = list(np.linspace(0.7, 1.0, 17) * obj.gamma_hint)
    ours, (first, second, family) = _exact_curvature(obj, sc, taus, caplog)
    assert ours.value < 1.0 and first == second == family
    assert ours == reference_auxiliary_curvature(obj, obj.matroid, sc, taus,
                                                 method=ours.method)


class Table(StochasticObjective):
    """A utility per set: one value for every scenario, or one per scenario."""

    def __init__(self, values, matroid):
        self.values = {frozenset(s): np.asarray(v, dtype=float) for s, v in values.items()}
        self.ground, self.matroid, self.gamma_hint = matroid.ground, matroid, 2.0

    def sample_scenarios(self, count, seed):
        return ScenarioSet(np.zeros((count, 1)), count, int(seed))

    def utilities(self, subset, scenarios):
        return np.full(len(scenarios), self.values[self.ground.check_subset(subset)])


def test_curvature_is_one_when_a_ratio_overflows(caplog):
    # G({0}) is subnormal and G({0, 1}) < G({1}), so element 0's ratio at
    # {0, 1} is -inf, which clips to curvature 1. Exact mode meets it in the
    # first block of pairs, at every grid; total mode meets it at
    # X = {0, 1, 2}, as G(X) < G({1, 2}).
    matroid = UniformMatroid(GroundSet(3), 2)
    obj = Table({(): 0, (0,): 1e-310, (1,): 2, (2,): 2, (0, 1): 0.5, (0, 2): 2,
                 (1, 2): 2, (0, 1, 2): 0.5}, matroid)
    sc = obj.sample_scenarios(4, 0)
    for taus in ([0.0, 1.0, 2.0], [0.0, 3.0]):
        with np.errstate(over="ignore"):
            ours, _ = _exact_curvature(obj, sc, taus, caplog)
            ref = reference_auxiliary_curvature(obj, matroid, sc, taus,
                                                method=ours.method)
            total = auxiliary_curvature(obj, matroid, sc, taus)
            total_ref = reference_auxiliary_curvature(obj, matroid, sc, taus)
        assert ours == ref == Curvature(1.0, "exact_matroid_enumeration")
        assert total == total_ref == Curvature(1.0, "total_over_ground_set")


def test_exact_curvature_finds_a_stop_above_the_two_lowest_taus(caplog):
    # two scenarios; G(S) = min(u_1, tau) + min(u_2, tau). Element 0's ratio
    # at {0, 1} is (2 min(1.5, tau) - tau) / 1: 1 at taus 1 and 2, 0 at 3
    # and -1 at 4, and every other ratio is positive. The first pass (taus
    # 1 and 2) reads the family without a stop; the second finds the ratio
    # <= 0 in its last block.
    matroid = UniformMatroid(GroundSet(2), 2)
    obj = Table({(): 0, (0,): 0.5, (1,): [0.0, 10.0], (0, 1): 1.5}, matroid)
    sc = obj.sample_scenarios(2, 0)
    taus = [0.0, 1.0, 2.0, 3.0, 4.0]
    ours, reads = _exact_curvature(obj, sc, taus, caplog)
    assert ours == reference_auxiliary_curvature(obj, matroid, sc, taus, method=ours.method)
    assert ours.value == 1.0 and reads == (4, 4, 4)
    low = _exact_curvature(obj, sc, taus[:3], caplog)
    assert low == (Curvature(0.0, "exact_matroid_enumeration"), (4, 0, 4))


def test_exact_curvature_raises_on_a_nan_of_the_second_pass(caplog):
    # G({0}) = -3 + min(4, tau) is -2, -1, 0 and 1 at taus 1 to 4, so {0}
    # is worth something (at tau 4) and its ratio G({0}) / G({0}) is 1 at
    # every tau but 3, where it is 0 / 0. The first pass (taus 1 and 2) sees
    # no NaN and no stop; the second pass meets the NaN and raises.
    matroid = UniformMatroid(GroundSet(1), 1)
    obj = Table({(): 0, (0,): [-3.0, 4.0]}, matroid)
    sc = obj.sample_scenarios(2, 0)
    assert _exact_curvature(obj, sc, [1.0, 2.0], caplog) == (
        Curvature(0.0, "exact_matroid_enumeration"), (2, 0, 2))
    with pytest.raises(ValueError, match="ratio of element 0 is NaN"):
        auxiliary_curvature(obj, matroid, sc, [1.0, 2.0, 3.0, 4.0],
                            method="exact_matroid_enumeration")


def test_exact_curvature_judges_worth_on_every_tau(caplog):
    # G({0}) = -3 + min(4, tau) is <= 0 at the two lowest taus, 1 and 2,
    # and positive at 3.5 and 4, so element 0 is worth something and its
    # ratios count at every tau: (G({0}) - G({})) / G({0}) with G({}) = -10
    # is -4 at tau 1. A worth judged on the first pass's taus alone would
    # skip it there and report 0 from the second pass's ratios 21 and 11.
    matroid = UniformMatroid(GroundSet(1), 1)
    obj = Table({(): -5.0, (0,): [-3.0, 4.0]}, matroid)
    sc = obj.sample_scenarios(2, 0)
    taus = [1.0, 2.0, 3.5, 4.0]
    ours, reads = _exact_curvature(obj, sc, taus, caplog)
    assert ours == reference_auxiliary_curvature(obj, matroid, sc, taus, method=ours.method)
    assert ours.value == 1.0 and reads == (2, 0, 2)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8),
       kind=st.sampled_from(["uniform", "partition"]),
       samples=st.sampled_from([1, 2, 7, 60]),
       fractions=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=5, unique=True),
       zero=st.booleans(), offset=st.sampled_from([0.0, -0.1, -0.4]),
       budget=st.sampled_from([None, 5, 64]))
def test_exact_curvature_matches_reference_on_split_grids(seed, size, kind, samples,
                                                         fractions, zero, offset, budget):
    # 1 to 5 positive taus: one pass below four of them, two from four up.
    # A negative offset makes some G({e}) <= 0 at the low taus and > 0 only
    # at higher ones, so an element's worth is judged on every tau.
    base = random_instance(seed, size=size, matroid_kind=kind)
    obj = Offset(base, offset * base.gamma_hint) if offset else base
    taus = [0.0] * zero + [f * base.gamma_hint for f in fractions]
    sc = obj.sample_scenarios(samples, seed)
    with mock.patch.object(sga, "_BLOCK_FLOATS", budget or sga._BLOCK_FLOATS), \
            _debug_records() as records:
        ours = auxiliary_curvature(obj, obj.matroid, sc, taus,
                                   method="exact_matroid_enumeration")
    assert ours == reference_auxiliary_curvature(obj, obj.matroid, sc, taus,
                                                 method=ours.method)
    first, second, family = _rows_read(records)
    assert second in (0, family) if len(set(taus) - {0.0}) >= 4 else second == 0


def test_verification_rejects_a_matroid_of_another_ground_set():
    # the family of a 6-element matroid would be scored as sets of the
    # 8-element objective
    obj = random_instance(0, size=8)
    matroid = UniformMatroid(GroundSet(6), 2)
    sc = obj.sample_scenarios(20, 0)
    taus = [0.0, 0.5 * obj.gamma_hint, obj.gamma_hint]
    message = "the matroid's ground set has 6 elements, the objective's 8"
    with pytest.raises(ValueError, match=message):
        brute_force_opt(obj, matroid, sc, 0.3, taus)
    for method in ("total_over_ground_set", "exact_matroid_enumeration"):
        with pytest.raises(ValueError, match=message):
            auxiliary_curvature(obj, matroid, sc, taus, method=method)


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4),
       samples=st.integers(1, 5000), taus=st.integers(4, 40),
       budget=st.sampled_from([None, 64, 2000]))
def test_sample_sums_on_a_split_grid_keep_the_whole_grids_bits(seed, rows, samples,
                                                               taus, budget):
    # exact curvature sums its two lowest positive taus and the rest apart
    rng = np.random.default_rng(seed)
    block = rng.uniform(-1.0, 10.0, (rows, samples))
    grid = np.sort(rng.uniform(0.0, 10.0, taus))
    with mock.patch.object(sga, "_BLOCK_FLOATS", budget or sga._BLOCK_FLOATS):
        whole = sga._sample_sums(block, grid, np.minimum)
        low = sga._sample_sums(block, grid[:2], np.minimum)
        high = sga._sample_sums(block, grid[2:], np.minimum)
    assert np.array_equal(whole, np.hstack([low, high]))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 10),
       kind=st.sampled_from(["uniform", "partition", "sensor"]),
       copies=st.integers(1, 2), alpha=st.sampled_from([0.001, 0.05, 0.3, 1.0]),
       samples=st.integers(1, 300),
       grid=st.sampled_from(["zero", "single", 1.0, 0.4, 1 / 7, 0.05]),
       budget=st.sampled_from([None, 1, 5, 64, 2000]))
def test_blocked_scoring_matches_per_set_reference(seed, size, kind, copies, alpha,
                                                   samples, grid, budget):
    if kind == "sensor":
        # empty or all-covering sites are worthless, and a site covered by the
        # others gives a zero ratio, so the skip and the early stop both occur
        obj = random_sensor(seed, size, 1 + seed % 30, select=1 + seed % size)
    elif copies == 1:
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


def test_family_scored_with_one_objective_call_per_block():
    # brute force and exact curvature read the family one size at a time:
    # brute force in blocks of budget // samples sets for its cvar pass and
    # then only the survivors in blocks of budget // max(samples, taus) for
    # the grid; exact curvature in blocks of budget // max(samples, positive
    # taus), up to the block of its first ratio <= 0 (at 6 samples; at 30
    # the curvature is below 1 and every block is read twice, once for the
    # two lowest positive taus and once for the other four). Neither calls
    # ``utilities``. Total curvature calls ``utilities`` for G(X), G({e})
    # and G(X - e), one set each (it stops after element 0 at 6 samples and
    # visits all 7 at 30).
    obj = random_instance(18, size=7, matroid_kind="uniform")
    family = enumerate_feasible(obj.matroid)
    full = frozenset(range(7))
    evaluated, blocks, total_reads = [], [], []
    utilities = RandomCoverageObjective.utilities
    set_utilities = RandomCoverageObjective.set_utilities

    def count_utilities(self, subset, scenarios):
        evaluated.append(subset)
        return utilities(self, subset, scenarios)

    def count_sets(self, ids, scenarios):
        blocks.append([frozenset(row) for row in ids.tolist()])
        return set_utilities(self, ids, scenarios)

    def by_size(sets, rows):
        sizes = [[s for s in sets if len(s) == r] for r in range(8)]
        return [b[i:i + rows] for b in sizes for i in range(0, len(b), rows)]

    for samples, budget, scan_rows, grid_rows, stops in (
            (6, 70, 11, 10, True),     # 7 and 6 taus outnumber the samples
            (30, 300, 10, 10, False)):  # the samples outnumber the taus
        sc = obj.sample_scenarios(samples, 5)
        taus = SgaConfig(alpha=0.3, gamma=obj.gamma_hint, delta=obj.gamma_hint / 6,
                         samples=samples).tau_grid()  # 0 and six positive taus
        found = {}
        with mock.patch.object(RandomCoverageObjective, "utilities", count_utilities), \
                mock.patch.object(RandomCoverageObjective, "set_utilities", count_sets), \
                mock.patch.object(sga, "_BLOCK_FLOATS", budget):
            ours = brute_force_opt(obj, obj.matroid, sc, 0.3, taus)
            found["brute"], blocks[:] = blocks[:], []
            exact = auxiliary_curvature(obj, obj.matroid, sc, taus,
                                        method="exact_matroid_enumeration")
            found["exact"], blocks[:] = blocks[:], []
            assert evaluated == []
            total = auxiliary_curvature(obj, obj.matroid, sc, taus)
        scan = by_size(family, scan_rows)
        assert found["brute"][:len(scan)] == scan
        scored = [s for b in found["brute"][len(scan):] for s in b]
        assert scored == [s for s in family if s in scored]
        assert 0 < len(scored) < len(family)
        assert found["brute"][len(scan):] == by_size(scored, grid_rows)
        read = by_size(family, scan_rows)  # budget // max(samples, 6)
        if stops:
            assert found["exact"] == read[:len(found["exact"])]
            assert len(found["exact"]) < len(read)
        else:
            assert found["exact"] == read + read
        assert evaluated[0] == full and len(evaluated) % 2 == 1
        assert evaluated[1:] == [s for e in range(len(evaluated) // 2)
                                 for s in (frozenset({e}), full - {e})]
        assert blocks == [[s] for s in evaluated]  # utilities is a batch of one set
        total_reads.append(len(evaluated))
        evaluated.clear()
        blocks.clear()
        assert ours == reference_brute_force_opt(obj, obj.matroid, sc, 0.3, taus)
        assert exact == reference_auxiliary_curvature(
            obj, obj.matroid, sc, taus, method="exact_matroid_enumeration")
        assert (exact.value == 1.0) == stops
        assert total == reference_auxiliary_curvature(obj, obj.matroid, sc, taus)
    assert total_reads == [3, 15]


def test_verification_checks_each_id_array_once():
    # brute force and exact curvature validate each call's id rows with one
    # check_rows and never check a set on its own
    check_subset, check_rows = GroundSet.check_subset, GroundSet.check_rows
    calls = {"subset": 0, "rows": 0}

    def count(name, check):
        def counted(self, ids):
            calls[name] += 1
            return check(self, ids)
        return counted

    for seed in range(4):
        obj = random_instance(seed, size=6 + seed)
        sc = obj.sample_scenarios(40, seed)
        taus = SgaConfig(alpha=0.3, gamma=obj.gamma_hint, delta=obj.gamma_hint / 8,
                         samples=40).tau_grid()
        calls.update(subset=0, rows=0)
        with mock.patch.object(GroundSet, "check_subset", count("subset", check_subset)), \
                mock.patch.object(GroundSet, "check_rows", count("rows", check_rows)):
            brute_force_opt(obj, obj.matroid, sc, 0.3, taus)
            auxiliary_curvature(obj, obj.matroid, sc, taus,
                                method="exact_matroid_enumeration")
        assert calls["subset"] == 0 and calls["rows"] > 0


def test_verification_shares_one_family_build():
    # brute force and exact curvature read the family of the same matroid:
    # one build, kept on the instance, serves every call
    obj = random_instance(6, size=8)
    sc = obj.sample_scenarios(40, 6)
    taus = SgaConfig(alpha=0.3, gamma=obj.gamma_hint, delta=obj.gamma_hint / 8,
                     samples=40).tau_grid()
    read, masks = [], sga.Matroid.feasible_masks
    with mock.patch.object(sga.Matroid, "feasible_masks",
                           lambda self: read.append(masks(self)) or read[-1]):
        for _ in range(2):
            brute_force_opt(obj, obj.matroid, sc, 0.3, taus)
            auxiliary_curvature(obj, obj.matroid, sc, taus,
                                method="exact_matroid_enumeration")
    assert len(read) == 4 and all(m is read[0] for m in read)


@pytest.mark.parametrize("grid, widths, rows", [
    ("one", {1}, 8),      # a one-tau grid: one (samples x 1) column
    ("short", {4}, 2),    # one slice of 4 taus, chunks of two rows
    ("long", {8, 9}, 1),  # 17 taus: slices of 8 and 9, the lone-tau tail folded
    ("long0", {8, 2}, 2),  # 0 and 17 positive taus: 8, 8 and 2 (curvature: 8 and 9)
])
def test_blocked_scoring_on_small_buffers(grid, widths, rows):
    # with a 40-float budget and 5 samples, a block holds 8 sets (2 on the
    # long grids, longer than the batch) and spans several row chunks and,
    # on the long grids, several tau slices; widths and rows are the
    # brute-force slices and the largest row chunk. Taus from 0.7 gamma up
    # leave the curvature of the first instance below 1 in both modes, so
    # every ratio is compared, not only a first one <= 0.
    objectives = [random_instance(4, size=6, matroid_kind="uniform"),
                  random_instance(5, size=7, matroid_kind="partition")]
    base = random_instance(7, size=3, matroid_kind="uniform")
    objectives.append(ClonedObjective(base, UniformMatroid(GroundSet(6), 3)))
    shortfall, shapes = sga._shortfall, []

    def record(u, tau):
        shapes.append((u.shape[0], tau.size))
        return shortfall(u, tau)

    for obj in objectives:
        g = obj.gamma_hint
        taus = {"one": [0.85 * g], "short": [0.0, 0.7 * g, 0.8 * g, 0.95 * g],
                "long": list(np.linspace(0.7, 1.0, 17) * g),
                "long0": [0.0] + list(np.linspace(0.7, 1.0, 17) * g)}[grid]
        sc = obj.sample_scenarios(5, 11)
        with mock.patch.object(sga, "_BLOCK_FLOATS", 40), \
                mock.patch.object(sga, "_shortfall", record):
            ours = brute_force_opt(obj, obj.matroid, sc, 0.3, taus)
            curvatures = [auxiliary_curvature(obj, obj.matroid, sc, taus, method=m)
                          for m in ("total_over_ground_set", "exact_matroid_enumeration")]
        assert ours == reference_brute_force_opt(obj, obj.matroid, sc, 0.3, taus)
        for curvature in curvatures:
            assert curvature == reference_auxiliary_curvature(
                obj, obj.matroid, sc, taus, method=curvature.method)
        if obj is objectives[0]:
            assert max(c.value for c in curvatures) < 1.0
    assert {w for _, w in shapes} == widths
    assert max(r for r, _ in shapes) == rows


@pytest.mark.parametrize("method", ["total_over_ground_set",
                                    "exact_matroid_enumeration"])
def test_nan_curvature_rejected(method):
    # a NaN singleton used to pass for worthless and a NaN ratio for "no
    # finite ratio": both reported curvature 0, the best possible bound
    class NanOnPairs(ModularDeterministic):
        def utilities(self, subset, scenarios):
            u = super().utilities(subset, scenarios)
            return u if len(frozenset(subset)) < 2 else np.full_like(u, np.nan)

    matroid = UniformMatroid(GroundSet(3), 2)
    taus = [0.0, 1.0, 2.0]
    obj = ModularDeterministic([float("nan"), 1.0, 2.0], matroid)
    sc = obj.sample_scenarios(4, 0)
    with pytest.raises(ValueError, match=r"G\(\{0\}\) is NaN.*element 0"):
        auxiliary_curvature(obj, matroid, sc, taus, method=method)
    obj = NanOnPairs([0.5, 1.0, 2.0], matroid)
    with pytest.raises(ValueError, match="ratio of element 0 is NaN"):
        auxiliary_curvature(obj, matroid, sc, taus, method=method)


def test_total_curvature_stops_at_first_zero_ratio(monkeypatch):
    # element 2 clones element 0, so G(X) == G(X - 0) exactly: k is 1 after
    # G(X), G({0}) and G(X - 0), without the other 2N - 2 sets
    base, _ = two_weight_objective()
    obj = ClonedObjective(base, UniformMatroid(GroundSet(4), 4))
    sc = obj.sample_scenarios(5, 0)
    evaluated = []
    utilities = ClonedObjective.utilities

    def count_utilities(self, subset, scenarios):
        evaluated.append(frozenset(subset))
        return utilities(self, subset, scenarios)

    monkeypatch.setattr(ClonedObjective, "utilities", count_utilities)
    curvature = auxiliary_curvature(obj, obj.matroid, sc, [0.0, 1.0, 2.5])
    assert curvature.value == 1.0
    assert evaluated == [frozenset({0, 1, 2, 3}), frozenset({0}), frozenset({1, 2, 3})]
    monkeypatch.undo()
    assert curvature == reference_auxiliary_curvature(obj, obj.matroid, sc,
                                                      [0.0, 1.0, 2.5])


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
