"""Scenario handling and the structural properties every bundled objective
must satisfy: normalization, monotonicity, submodularity, determinism."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cvargreedy import ScenarioSet, check_sample_count, child_seed
from cvargreedy.problems import OccupancyGrid, SensorCoverage, VehicleAssignment
from cvargreedy.synthetic import random_instance
from conftest import scalar_utilities


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
