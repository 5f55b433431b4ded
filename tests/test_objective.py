"""Scenario handling and the structural properties every bundled objective
must satisfy: normalization, monotonicity, submodularity, determinism."""
from __future__ import annotations

import dataclasses
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvargreedy import (GroundSet, ScenarioSet, StochasticObjective,
                        UniformMatroid, check_sample_count, child_seed, sga)
from cvargreedy.matroid import _mask_ids
from cvargreedy.problems import OccupancyGrid, SensorCoverage, VehicleAssignment
from cvargreedy.synthetic import random_instance
from conftest import (ModularDeterministic, random_sensor,
                      reference_coverage_utilities, reference_sensor_utilities,
                      scalar_utilities, with_failed_rows)


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


@pytest.mark.parametrize("bad", [2.7, True, 0.5, "3", float("nan")])
def test_sample_count_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="sample count must be an integer"):
        check_sample_count(bad)
    assert check_sample_count(3.0) == 3 and type(check_sample_count(np.int64(3))) is int


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
    """Rows of extension_utilities equal utilities(S | {e}) bit for bit, for
    one group and for several groups of one size in one call; and every
    call validates its subsets, and the default hook its candidates too."""
    sc = objective.sample_scenarios(40, seed=9)
    rng = np.random.default_rng(5)
    n = objective.ground.size
    for _ in range(6):
        size = int(rng.integers(0, n))
        groups = []
        for _ in range(int(rng.integers(1, 4))):
            subset = frozenset(int(e) for e in rng.choice(n, size, replace=False))
            candidates = [e for e in range(n) if e not in subset and rng.random() < 0.8]
            groups.append((subset, candidates))
        rows = objective.extension_utilities(groups, sc)
        assert rows.shape == (sum(len(c) for _, c in groups), 40)
        expected = [objective.utilities(subset | {e}, sc)
                    for subset, candidates in groups for e in candidates]
        for row, single in zip(rows, expected):
            assert np.array_equal(row, single)
        assert np.array_equal(rows[:len(groups[0][1])],
                              objective.extension_utilities(groups[:1], sc))
    assert objective.extension_utilities([], sc).shape == (0, 40)
    cases = [([({n}, [0])], "outside ground set"),
             ([({0}, [1]), ({n}, [1])], "outside ground set"),
             ([({0.0}, [1])], "integer"),
             ([({True, 2}, [0])], "must be integers, got True")]
    if type(objective).extension_utilities is StochasticObjective.extension_utilities:
        cases += [([({0}, [n])], "outside ground set"),
                  ([({0}, [1]), ({1}, [n])], "outside ground set"),
                  ([({0}, [0])], "strictly ascending"),
                  ([({0}, [1.0])], "integer array"),
                  ([({0}, [True, 2])], "must be integers, got True"),
                  ([({0}, [1]), (set(), [1])], "one size")]
    for groups, message in cases:
        with pytest.raises(ValueError, match=message):
            objective.extension_utilities(groups, sc)


def test_extension_rows_equal_utilities(objective):
    check_extension_rows(objective)


@pytest.mark.parametrize("objective", [
    random_instance(8, size=5),
    ModularDeterministic([0.5, 2.0, 1.25], UniformMatroid(GroundSet(3), 2)),
], ids=["synthetic", "modular"])
def test_default_extension_hook(objective):
    # these score S + e through set_utilities (batched for random coverage):
    # their utilities are float sums whose incremental forms would change the
    # last bits
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
    rows = inst.extension_utilities([(subset, candidates)], sc)
    assert rows.shape == (len(candidates), samples)
    assert rows.dtype == np.float64
    for row, e in zip(rows, candidates):
        assert np.array_equal(row, inst.utilities(subset | {e}, sc))
        assert np.array_equal(row, scalar_utilities(inst, subset | {e}, sc))


def check_sensor_rows(inst, subset, sc):
    """``utilities`` and every extension row of the subset bit-equal to the
    per-sample reference, with the rows C-contiguous as the solver reads them."""
    assert np.array_equal(inst.utilities(subset, sc),
                          reference_sensor_utilities(inst, subset, sc))
    candidates = [e for e in inst.ground.elements if e not in subset]
    rows = inst.extension_utilities([(subset, candidates)], sc)
    assert rows.shape == (len(candidates), len(sc))
    assert rows.dtype == np.float64 and rows.flags.c_contiguous
    for row, e in zip(rows, candidates):
        assert np.array_equal(row, reference_sensor_utilities(inst, subset | {e}, sc))


def count_coverage_rows(monkeypatch) -> list[int]:
    """A list that gets the number of coverage rows each sensor kernel call builds."""
    built = []
    patterns = SensorCoverage._patterns

    def counted(self, subset, scenarios):
        pattern, covered = patterns(self, subset, scenarios)
        built.append(covered.shape[0])
        return pattern, covered

    monkeypatch.setattr(SensorCoverage, "_patterns", counted)
    return built


def distinct_rows(bits: np.ndarray) -> int:
    return len({row.tobytes() for row in bits})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sites=st.integers(1, 12),
       cells=st.integers(1, 60), samples=st.sampled_from([1, 2, 33, 500]),
       failures=st.booleans())
def test_sensor_rows_equal_the_per_sample_reference(seed, sites, cells, samples,
                                                    failures):
    inst = random_sensor(seed, sites, cells)
    sc = inst.sample_scenarios(samples, seed)
    rng = np.random.default_rng(seed)
    if failures:
        sc = with_failed_rows(sc, rng.random(samples) < 0.5)
    ids = sorted(rng.choice(sites, int(rng.integers(0, sites + 1)), replace=False).tolist())
    with pytest.MonkeyPatch.context() as monkeypatch:
        built = count_coverage_rows(monkeypatch)
        check_sensor_rows(inst, frozenset(ids), sc)
    # one coverage row per distinct failure pattern of the subset's sensors
    assert built == [distinct_rows(sc.data[:, ids])] * 2


@pytest.mark.parametrize("sites, size", [(70, 65), (130, 120)])
@pytest.mark.parametrize("samples", [1, 500])
def test_sensor_patterns_span_several_code_chunks(monkeypatch, samples, sites, size):
    # a code chunk holds 61 ids beside 1 sample and 53 beside 500: 65 ids
    # take two chunks, 120 ids three, the middle one full
    inst = random_sensor(7, sites, 90)
    sc = inst.sample_scenarios(samples, 7)
    ids = sorted(np.random.default_rng(7).choice(sites, size, replace=False).tolist())
    built = count_coverage_rows(monkeypatch)
    check_sensor_rows(inst, frozenset(ids), sc)
    assert built == [distinct_rows(sc.data[:, ids])] * 2
    # samples that agree past the first half of the ids: the patterns of the
    # first chunk alone tell them apart, through every later shift
    bits = sc.data.copy()
    bits[:, ids[size // 2:]] = bits[0, ids[size // 2:]]
    check_sensor_rows(inst, frozenset(ids), ScenarioSet(bits, samples, 7))
    assert built[-2:] == [distinct_rows(bits[:, ids[:size // 2]])] * 2


@pytest.mark.parametrize("layout, patterns", [("shared", 1), ("distinct", 500)])
def test_sensor_rows_at_one_and_at_every_sample_pattern(monkeypatch, layout, patterns):
    inst = random_sensor(11, 12, 40)
    bits = inst.sample_scenarios(500, 11).data.copy()
    ids = list(range(1, 11))
    if layout == "shared":
        bits[:] = bits[0]
    else:  # sample i's sensors 1..10 work as the binary digits of i
        bits[:, ids] = (np.arange(500)[:, None] >> np.arange(10)) & 1
    sc = ScenarioSet(bits, 500, 11)
    built = count_coverage_rows(monkeypatch)
    check_sensor_rows(inst, frozenset(ids), sc)
    check_sensor_rows(inst, frozenset(), sc)
    # the empty set has one pattern, whatever the batch
    assert built == [patterns, patterns, 1, 1]
    assert not inst.utilities(frozenset(), sc).any()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vehicles=st.integers(1, 6),
       demands=st.integers(1, 6), size=st.integers(0, 15),
       build=st.sampled_from(["ids", "reversed", "grown"]),
       samples=st.sampled_from([1, 2, 33, 500]),
       budget=st.sampled_from([None, 1, 1500]))
def test_vehicle_extension_rows_equal_utilities(seed, vehicles, demands, size, build,
                                                samples, budget):
    # the subset may hold several vehicles per demand, and its frozenset
    # iteration order (which orders the float sum) depends on how it was built
    inst = VehicleAssignment.generate(vehicles, demands, seed=seed % 1000)
    sc = inst.sample_scenarios(samples, seed)
    rng = np.random.default_rng(seed)
    n = inst.ground.size
    ids = rng.choice(n, min(size, n), replace=False).tolist()
    if build == "ids":
        subset = frozenset(ids)
    elif build == "reversed":
        subset = frozenset(reversed(ids))
    else:
        subset = frozenset()
        for e in ids:
            subset = subset | {e}
    candidates = [int(e) for e in rng.permutation(n) if e not in subset]
    with mock.patch.object(sga, "_GROUP_FLOATS", budget or sga._GROUP_FLOATS):
        rows = inst.extension_utilities([(subset, candidates)], sc)
    assert rows.shape == (len(candidates), samples)
    for row, e in zip(rows, candidates):
        assert np.array_equal(row, inst.utilities(subset | {e}, sc))
    assert inst.extension_utilities([(subset, [])], sc).shape == (0, samples)


def test_sensor_rejects_counts_float32_cannot_hold():
    with pytest.raises(ValueError, match="2\\*\\*24"):
        SensorCoverage([(0, 1), (1, 2)], free_cell_count=2**24, select=1)
    SensorCoverage([(0, 1), (1, 2)], free_cell_count=2**24 - 1, select=1)
    # the sets together may not span more cells than the free space either
    with pytest.raises(ValueError, match="span 3 cells"):
        SensorCoverage([(0, 1), (1, 2)], free_cell_count=2, select=1)


# ---------------------------------------------------- batched set scoring

def feasible_ids(objective):
    """The feasible family as id rows, one array per size."""
    return list(_mask_ids(objective.matroid.feasible_masks(), objective.ground.size))


def check_set_rows(objective, ids, scenarios, single=None):
    """Rows of set_utilities equal single(frozenset(row)) bit for bit, one
    per id row; single is ``utilities`` unless given."""
    single = single or objective.utilities
    rows = objective.set_utilities(ids, scenarios)
    assert rows.shape == (len(ids), len(scenarios))
    assert rows.dtype == np.float64
    for row, set_ids in zip(rows, ids.tolist()):
        assert np.array_equal(row, single(frozenset(set_ids), scenarios))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12),
       cells=st.integers(1, 30), count=st.integers(0, 40),
       samples=st.sampled_from([1, 2, 60, 500]))
def test_random_coverage_set_rows_equal_utilities(seed, size, cells, count, samples):
    inst = random_instance(seed, size=size, cells=cells)
    sc = inst.sample_scenarios(samples, seed)
    rng = np.random.default_rng(seed)
    single = partial(reference_coverage_utilities, inst)
    # every size from the empty set to the full ground set: random sets in
    # random order and a duplicate row, also as a column-major array
    for r in range(size + 1):
        ids = np.sort([rng.choice(size, r, replace=False) for _ in range(count + 1)],
                      axis=1).reshape(count + 1, r)
        ids = ids[np.append(np.arange(count + 1), 0)]
        check_set_rows(inst, ids, sc, single)
        check_set_rows(inst, np.asfortranarray(ids), sc, single)
        check_set_rows(inst, ids, sc)  # utilities is the batch of one set
    assert inst.set_utilities(np.empty((0, 1), np.intp), sc).shape == (0, samples)


@pytest.mark.parametrize("budget", [sga._BLOCK_FLOATS, 1, 1500, 7 * 60 * 10 + 1])
def test_random_coverage_set_rows_on_feasible_families(monkeypatch, budget):
    # the id arrays brute force and exact curvature score: every independent
    # set, one array per size; a small budget splits each array into chunks
    # of 1, 2 or 7 sets (60 samples x 10 cells per set)
    monkeypatch.setattr(sga, "_BLOCK_FLOATS", budget)
    for seed in range(6):
        inst = random_instance(seed, size=6 + seed)
        sc = inst.sample_scenarios(60, 1000 + seed)
        for ids in feasible_ids(inst):
            check_set_rows(inst, ids, sc, partial(reference_coverage_utilities, inst))


@pytest.mark.parametrize("objective", [
    # 12 pairs, so ids 8 apart can share a set and a hash slot: the
    # frozenset order, which orders the vehicle's float sum, then depends on
    # how the set was built, and each row must be built as frozenset(row)
    VehicleAssignment.generate(3, 4, seed=6),
    ModularDeterministic([0.5, 2.0, 1.25], UniformMatroid(GroundSet(3), 2)),
    random_sensor(4, 6, 30, select=3),
], ids=["vehicle", "modular", "sensor"])
def test_default_set_hook(objective):
    assert type(objective).set_utilities is StochasticObjective.set_utilities
    sc = objective.sample_scenarios(40, seed=9)
    family = feasible_ids(objective)
    for ids in family + [family[-1][[-1, 0, -1]]]:  # the last size again, a row twice
        check_set_rows(objective, ids, sc)
    assert objective.set_utilities(np.empty((0, 1), np.intp), sc).shape == (0, 40)


@pytest.mark.parametrize("name, objective", make_objectives() + [
    ("modular", ModularDeterministic([0.5, 2.0, 1.25],
                                     UniformMatroid(GroundSet(3), 2)))])
def test_set_utilities_rejects_bad_ids_anywhere(name, objective):
    n = objective.ground.size
    sc = objective.sample_scenarios(5, seed=1)
    for bad, message in ((n, "outside ground set"), (-1, "outside ground set"),
                         (True, "must be integers"), (np.True_, "must be integers"),
                         (1.0, "must be integers")):
        with pytest.raises(ValueError, match=message):
            objective.utilities({bad}, sc)
        # also next to valid ids, in every row and column, in an array of
        # the bad id's dtype
        message = message.replace("must be integers", "must be a 2-d integer array")
        for block in ([[bad]], [[0], [bad]], [[bad], [1]],
                      [[0, 1], sorted([1, bad])], [sorted([0, bad]), [0, 1]]):
            with pytest.raises(ValueError, match=message):
                objective.set_utilities(np.array(block, np.asarray(bad).dtype), sc)
    # numpy integer ids count as their int value
    assert np.array_equal(objective.utilities({np.int64(1)}, sc),
                          objective.utilities({1}, sc))
    assert np.array_equal(objective.utilities(np.array([0, 1]), sc),
                          objective.utilities({0, 1}, sc))
    assert np.array_equal(objective.set_utilities(np.array([[1]], np.int32), sc)[0],
                          objective.utilities({1}, sc))
