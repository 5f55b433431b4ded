"""Scenario handling and the structural properties every bundled objective
must satisfy: normalization, monotonicity, submodularity, determinism."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvargreedy import (GroundSet, ScenarioSet, StochasticObjective,
                        UniformMatroid, check_sample_count, child_seed)
from cvargreedy.problems import OccupancyGrid, SensorCoverage, VehicleAssignment
from cvargreedy.synthetic import random_instance
from conftest import (ModularDeterministic, random_sensor, scalar_utilities,
                      with_failed_rows)


def make_objectives():
    grid = OccupancyGrid.from_rows(["000000", "001100", "000000",
                                    "000000", "000000", "000000"])
    return [
        ("synthetic", random_instance(21, size=5)),
        ("vehicle", VehicleAssignment.generate(3, 2, seed=4)),
        ("sensor", SensorCoverage.generate(candidates=5, select=3,
                                           grid=grid, seed=4)),
    ]


@pytest.fixture(params=make_objectives(), ids=lambda p: p[0])
def objective(request):
    return request.param[1]


def test_child_seed_distinct_and_stable():
    seen = {child_seed(0, i) for i in range(50)}
    assert len(seen) == 50
    assert child_seed(123, 7) == child_seed(123, 7)
    assert child_seed(123, 7) != child_seed(124, 7)
    # negative seeds are folded into the unsigned range, not rejected
    assert child_seed(-1, 0) == child_seed(-1, 0)


def test_scenario_set_api():
    data = np.arange(12.0).reshape(4, 3)
    sc = ScenarioSet(data, 4, seed=9)
    assert len(sc) == 4
    assert sc.seed == 9
    assert sc.data is data
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.seed = 1


def test_scenario_set_tuple_payload():
    bits = np.zeros((5, 2), dtype=np.uint8)
    factors = np.ones(5)
    sc = ScenarioSet((bits, factors), 5, seed=0)
    assert len(sc) == 5
    assert sc.data[0] is bits and sc.data[1] is factors


def test_scenario_set_size_mismatch():
    with pytest.raises(ValueError):
        ScenarioSet(np.zeros((3, 2)), 4, seed=0)
    with pytest.raises(ValueError):
        ScenarioSet((np.zeros((3, 2)), np.zeros(4)), 3, seed=0)
    with pytest.raises(ValueError):
        check_sample_count(0)


def test_sampling_deterministic(objective):
    a = objective.sample_scenarios(20, seed=5)
    b = objective.sample_scenarios(20, seed=5)
    c = objective.sample_scenarios(20, seed=6)
    sets = [frozenset(objective.ground.elements)]
    ua, ub, uc = (objective.utilities(sets[0], s) for s in (a, b, c))
    assert np.array_equal(ua, ub)
    assert not np.array_equal(ua, uc)


def test_utilities_match_scalar_evaluate(objective):
    sc = objective.sample_scenarios(15, seed=2)
    rng = np.random.default_rng(3)
    n = objective.ground.size
    for _ in range(4):
        size = int(rng.integers(0, n + 1))
        s = frozenset(int(e) for e in rng.choice(n, size, replace=False))
        vec = objective.utilities(s, sc)
        assert vec.shape == (15,)
        loop = scalar_utilities(objective, s, sc)
        np.testing.assert_allclose(vec, loop, rtol=1e-12, atol=1e-12)


def test_normalized_and_bounded(objective):
    sc = objective.sample_scenarios(25, seed=7)
    zero = objective.utilities(frozenset(), sc)
    assert np.all(zero == 0.0)
    full = objective.utilities(frozenset(objective.ground.elements), sc)
    assert np.all(full >= 0.0)
    assert np.all(full <= objective.gamma_hint + 1e-9)


def test_monotone_and_submodular(objective):
    sc = objective.sample_scenarios(12, seed=11)
    rng = np.random.default_rng(13)
    n = objective.ground.size
    for _ in range(40):
        small = frozenset(int(e) for e in
                          rng.choice(n, int(rng.integers(0, n)), replace=False))
        extra = frozenset(int(e) for e in
                          rng.choice(n, int(rng.integers(0, n)), replace=False))
        big = small | extra
        e = int(rng.integers(0, n))
        if e in big:
            continue
        u_small = objective.utilities(small, sc)
        gain_small = objective.utilities(small | {e}, sc) - u_small
        gain_big = objective.utilities(big | {e}, sc) - objective.utilities(big, sc)
        assert np.all(gain_small >= -1e-12)
        assert np.all(gain_big <= gain_small + 1e-9)
        assert np.all(objective.utilities(big, sc) >= u_small - 1e-12)


def test_matroid_ground_consistency(objective):
    assert objective.matroid.ground is objective.ground
    assert objective.gamma_hint > 0


# ------------------------------------------------ batched extension scoring

def check_extension_rows(objective):
    """Rows of extension_utilities equal utilities(S | {e}) bit for bit."""
    sc = objective.sample_scenarios(40, seed=9)
    rng = np.random.default_rng(5)
    n = objective.ground.size
    for _ in range(6):
        subset = frozenset(int(e) for e in
                           rng.choice(n, int(rng.integers(0, n)), replace=False))
        candidates = [e for e in range(n) if e not in subset]
        rows = objective.extension_utilities(subset, candidates, sc)
        assert rows.shape == (len(candidates), 40)
        for row, e in zip(rows, candidates):
            assert np.array_equal(row, objective.utilities(subset | {e}, sc))
    with pytest.raises(ValueError, match="outside ground set"):
        objective.extension_utilities({n}, [0], sc)


def test_extension_rows_equal_utilities(objective):
    check_extension_rows(objective)


@pytest.mark.parametrize("objective", [
    random_instance(8, size=5),
    VehicleAssignment.generate(3, 2, seed=6),
    ModularDeterministic([0.5, 2.0, 1.25], UniformMatroid(GroundSet(3), 2)),
], ids=["synthetic", "vehicle", "modular"])
def test_default_extension_hook(objective):
    # these keep the per-candidate loop: their utilities are float sums whose
    # incremental forms would change the last bits
    assert (type(objective).extension_utilities
            is StochasticObjective.extension_utilities)
    check_extension_rows(objective)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sites=st.integers(1, 12),
       cells=st.integers(1, 60),
       shape=st.sampled_from(["empty", "all_but_one", "random"]),
       samples=st.sampled_from([1, 2, 33, 500]), failures=st.booleans())
def test_sensor_extension_rows_equal_utilities(seed, sites, cells, shape,
                                               samples, failures):
    inst = random_sensor(seed, sites, cells)
    sc = inst.sample_scenarios(samples, seed)
    rng = np.random.default_rng(seed)
    if failures:  # every sensor fails in scenario 0 and in about half the rest
        sc = with_failed_rows(sc, (rng.random(samples) < 0.5) | (np.arange(samples) == 0))
    if shape == "empty":
        subset = frozenset()
    elif shape == "all_but_one":
        subset = frozenset(range(sites)) - {int(rng.integers(sites))}
    else:
        subset = frozenset(int(e) for e in
                           rng.choice(sites, int(rng.integers(0, sites)), replace=False))
    candidates = [e for e in range(sites) if e not in subset]
    rows = inst.extension_utilities(subset, candidates, sc)
    assert rows.shape == (len(candidates), samples)
    assert rows.dtype == np.float64
    for row, e in zip(rows, candidates):
        assert np.array_equal(row, inst.utilities(subset | {e}, sc))
        assert np.array_equal(row, scalar_utilities(inst, subset | {e}, sc))


def test_sensor_rejects_counts_float32_cannot_hold():
    with pytest.raises(ValueError, match="2\\*\\*24"):
        SensorCoverage([(0, 1), (1, 2)], free_cell_count=2**24, select=1)
    SensorCoverage([(0, 1), (1, 2)], free_cell_count=2**24 - 1, select=1)
    # the sets together may not span more cells than the free space either
    with pytest.raises(ValueError, match="span 3 cells"):
        SensorCoverage([(0, 1), (1, 2)], free_cell_count=2, select=1)
