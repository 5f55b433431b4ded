"""Greedy selection on deterministic set functions, checked against the plain
greedy loop kept in conftest, and the generic curvature references (also in
conftest) that auxiliary_curvature is checked against."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvargreedy import (Curvature, EnumerationCapError, GroundSet,
                        PartitionMatroid, UniformMatroid, greedy_maximize)
from cvargreedy.greedy import greedy_sweep
from cvargreedy.synthetic import random_instance, random_matroid
from conftest import (UndefinedCurvatureError, brute_force_max,
                      matroid_curvature, plain_greedy, total_curvature)


def modular(weights):
    return lambda s: float(sum(weights[e] for e in s))


def coverage(cover_sets):
    return lambda s: float(len(set().union(*(cover_sets[e] for e in s)) if s else set()))


def test_modular_uniform_example():
    ground = GroundSet(3)
    fn = modular({0: 3.0, 1: 2.0, 2: 1.0})
    chosen, trace = greedy_maximize(fn, UniformMatroid(ground, 2))
    assert chosen == {0, 1}
    assert [p for p, _ in trace.picks] == [0, 1]
    assert [g for _, g in trace.picks] == [3.0, 2.0]
    # 1 call for the empty set, then 3 and 2 candidate evaluations
    assert trace.evaluations == 6


def test_coverage_example_with_redundancy():
    ground = GroundSet(3)
    fn = coverage([{1, 2}, {2, 3}, {3}])
    chosen, trace = greedy_maximize(fn, UniformMatroid(ground, 2))
    assert chosen == {0, 1}
    assert fn(chosen) == 3.0
    assert [g for _, g in trace.picks] == [2.0, 1.0]


def test_partition_example():
    ground = GroundSet(3)
    matroid = PartitionMatroid(ground, (frozenset({0, 1}), frozenset({2})), (1, 1))
    chosen, _ = greedy_maximize(modular({0: 1.0, 1: 5.0, 2: 2.0}), matroid)
    assert chosen == {1, 2}


def test_ties_break_to_smallest_id():
    ground = GroundSet(4)
    chosen, trace = greedy_maximize(modular({e: 1.0 for e in range(4)}),
                                    UniformMatroid(ground, 2))
    assert chosen == {0, 1}
    assert [p for p, _ in trace.picks] == [0, 1]


def test_fills_to_maximal_even_without_gain():
    ground = GroundSet(3)
    fn = coverage([{1}, {1}, {1}])  # everything past the first pick is redundant
    chosen, trace = greedy_maximize(fn, UniformMatroid(ground, 3))
    assert chosen == {0, 1, 2}
    assert [g for _, g in trace.picks] == [1.0, 0.0, 0.0]


def test_evaluation_count_uniform():
    n, k = 7, 4
    ground = GroundSet(n)
    rng = np.random.default_rng(2)
    fn = modular(dict(enumerate(rng.random(n))))
    _, trace = greedy_maximize(fn, UniformMatroid(ground, k))
    assert trace.evaluations == 1 + sum(n - s for s in range(k))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gains_non_increasing_on_submodular(seed):
    obj = random_instance(seed, size=5)
    sc = obj.sample_scenarios(30, seed=1)

    def mean_value(s):
        return float(obj.utilities(s, sc).mean())

    _, trace = greedy_maximize(mean_value, obj.matroid)
    gains = [g for _, g in trace.picks]
    assert all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))
    assert all(g >= -1e-9 for g in gains)


def test_relabel_invariance():
    # permuting element ids permutes the chosen set accordingly (no ties here)
    weights = [5.0, 3.0, 8.0, 1.0]
    perm = [2, 0, 3, 1]
    ground = GroundSet(4)
    matroid = UniformMatroid(ground, 2)
    base, _ = greedy_maximize(modular(dict(enumerate(weights))), matroid)
    permuted_weights = {perm[e]: weights[e] for e in range(4)}
    permuted, _ = greedy_maximize(modular(permuted_weights), matroid)
    assert permuted == {perm[e] for e in base}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_greedy_ratio_floor(seed):
    obj = random_instance(seed, size=5, matroid_kind="mixed")
    sc = obj.sample_scenarios(25, seed=2)

    def mean_value(s):
        return float(obj.utilities(s, sc).mean())

    chosen, _ = greedy_maximize(mean_value, obj.matroid)
    best_set, best = brute_force_max(mean_value, obj.matroid)
    assert mean_value(chosen) >= 0.5 * best - 1e-9
    if isinstance(obj.matroid, UniformMatroid):
        assert mean_value(chosen) >= (1 - 1 / math.e) * best - 1e-9


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9),
       kind=st.sampled_from(["uniform", "partition"]),
       family=st.sampled_from(["modular", "coverage"]), ties=st.booleans())
def test_greedy_matches_plain_greedy(seed, n, kind, family, ties):
    # small integer weights tie exactly, so the smallest-id rule is exercised
    rng = np.random.default_rng(seed)
    matroid = random_matroid(rng, GroundSet(n), kind)

    def draw(size):
        return (rng.integers(0, 3, size).astype(float) if ties
                else rng.uniform(0.0, 5.0, size))

    if family == "modular":
        fn = modular(dict(enumerate(draw(n))))
    else:
        cells = rng.random((n, 6)) < 0.4
        cell_weight = draw(6)

        def fn(s):
            covered = np.zeros(6, dtype=bool)
            for e in s:
                covered |= cells[e]
            return float(cell_weight[covered].sum())
    chosen, trace = greedy_maximize(fn, matroid)
    expected, picks, evaluations = plain_greedy(fn, matroid)
    assert chosen == expected
    assert trace.picks == picks  # same elements and gains, compared with ==
    assert trace.evaluations == evaluations


def test_nan_scores_never_win():
    # sets holding element 0 score NaN; the greedy steps past them as the
    # plain loop does, since NaN > best is False
    weights = {0: 9.0, 1: 2.0, 2: 1.0, 3: 3.0}

    def fn(s):
        return float("nan") if 0 in s else modular(weights)(s)

    matroid = UniformMatroid(GroundSet(4), 2)
    chosen, trace = greedy_maximize(fn, matroid)
    expected, picks, evaluations = plain_greedy(fn, matroid)
    assert chosen == expected == {1, 3}
    assert trace.picks == picks
    assert trace.evaluations == evaluations


def test_all_nan_scores_rejected():
    matroid = UniformMatroid(GroundSet(3), 2)
    with pytest.raises(ValueError, match=r"greedy step from \[\]: .*NaN"):
        greedy_maximize(lambda s: float("nan"), matroid)
    # stuck after a first valid pick: the message names the current set
    with pytest.raises(ValueError, match=r"greedy step from \[2\]: .*\[nan, nan\]"):
        greedy_maximize(lambda s: 1.0 if len(s) < 2 and s <= {2} else float("nan"),
                        matroid)


# ------------------------------------------------ settling at the bounds

def one_step_sweep(table, bounds):
    """greedy_sweep of len(bounds) functions over one pick among len(table)
    elements, each function at its bound on the empty set; entry [e, i] is
    function i at {e}. Returns the sweep and the candidate lists scored."""
    table = np.array(table, dtype=float)
    scored = []

    def score(members, current, candidates):
        scored.append(list(candidates))
        return table[np.ix_(candidates, members)]

    matroid = UniformMatroid(GroundSet(len(table)), 1)
    return greedy_sweep(score, matroid, bounds, bounds), scored


def assert_same_as_without_bounds(sweep, table, bounds):
    table = np.array(table, dtype=float)
    plain = greedy_sweep(lambda members, _, candidates: table[np.ix_(candidates, members)],
                         UniformMatroid(GroundSet(len(table)), 1), bounds)
    assert sweep[0] == plain[0]
    assert np.array_equal(sweep[1], plain[1])
    for ours, theirs in zip(sweep[2], plain[2]):
        assert (ours.picks, ours.evaluations) == (theirs.picks, theirs.evaluations)


def test_settled_group_scores_its_first_candidate_alone():
    # a NaN among the skipped candidates is never scored, so it changes nothing
    nan = float("nan")
    table = [[1.0, 2.0], [nan, nan], [1.0, 2.0]]
    sweep, scored = one_step_sweep(table, [1.0, 2.0])
    assert scored == [[0]]
    assert [t.picks for t in sweep[2]] == [[(0, 0.0)], [(0, 0.0)]]
    assert [(t.evaluations, t.settled, t.skipped) for t in sweep[2]] == [(4, 1, 2)] * 2
    assert_same_as_without_bounds(sweep, table, [1.0, 2.0])


@pytest.mark.parametrize("first", [0.5, float("nan"), -float("inf")])
def test_settle_falls_back_when_the_first_candidate_falls_short(first):
    # function 1's bound is reached first by element 2, function 0's by 0
    table = [[1.0, first], [0.9, 1.5], [1.0, 2.0]]
    sweep, scored = one_step_sweep(table, [1.0, 2.0])
    assert scored == [[0], [1, 2]]
    assert [t.picks for t in sweep[2]] == [[(0, 0.0)], [(2, 0.0)]]
    assert [(t.settled, t.skipped) for t in sweep[2]] == [(0, 0)] * 2
    assert_same_as_without_bounds(sweep, table, [1.0, 2.0])


def test_settle_raises_when_every_candidate_is_nan():
    nan = float("nan")
    with pytest.raises(ValueError, match=r"greedy step from \[\]: .*\[0, 1\] .*\[nan, nan\]"):
        one_step_sweep([[nan], [nan]], [1.0])


@pytest.mark.parametrize("kind", ["uniform", "partition"])
def test_sweep_checks_no_set_it_built(monkeypatch, kind):
    # the loop grows every set from the matroid's own candidates, so it asks
    # for extensions unchecked: the solve validates no subset at all
    rng = np.random.default_rng(5)
    matroid = random_matroid(rng, GroundSet(9), kind)
    weights = rng.random((9, 3))

    def score(members, current, candidates):
        return np.array([[sum(weights[e, j] for e in current | {c}) for j in members]
                         for c in candidates])

    checked = []
    check_subset = GroundSet.check_subset
    monkeypatch.setattr(GroundSet, "check_subset",
                        lambda self, subset: checked.append(subset) or check_subset(self, subset))
    selected, _, _ = greedy_sweep(score, matroid, np.zeros(3))
    assert checked == []
    for j in range(3):
        assert selected[j] == plain_greedy(modular(weights[:, j]), matroid)[0]


# -------------------------------------------------------------- curvature

def test_total_curvature_examples():
    ground = GroundSet(3)
    c = total_curvature(modular({0: 1.0, 1: 2.0, 2: 3.0}), ground)
    assert c == Curvature(0.0, "total_over_ground_set")
    c = total_curvature(lambda s: float(min(len(s), 1)), ground)
    assert c.value == 1.0
    ground2 = GroundSet(2)
    c = total_curvature(lambda s: math.sqrt(len(s)), ground2)
    assert c.value == pytest.approx(2.0 - math.sqrt(2.0))


def test_curvature_zero_singleton_rejected():
    ground = GroundSet(2)
    fn = modular({0: 1.0, 1: 0.0})
    with pytest.raises(UndefinedCurvatureError):
        total_curvature(fn, ground)
    with pytest.raises(UndefinedCurvatureError):
        matroid_curvature(fn, UniformMatroid(ground, 1))


def test_matroid_curvature_never_exceeds_total():
    for seed in range(8):
        obj = random_instance(seed, size=5)
        sc = obj.sample_scenarios(20, seed=3)

        def mean_value(s):
            return float(obj.utilities(s, sc).mean())

        total = total_curvature(mean_value, obj.ground)
        restricted = matroid_curvature(mean_value, obj.matroid)
        assert restricted.method == "exact_matroid_enumeration"
        assert 0.0 <= restricted.value <= 1.0
        full_feasible = obj.matroid.is_independent(frozenset(obj.ground.elements))
        if full_feasible:
            assert restricted.value <= total.value + 1e-12


def test_matroid_curvature_equals_total_when_free():
    ground = GroundSet(3)
    fn = coverage([{1, 2}, {2, 3}, {4}])
    free = UniformMatroid(ground, 3)
    assert matroid_curvature(fn, free).value == pytest.approx(
        total_curvature(fn, ground).value)


def test_matroid_curvature_cap():
    ground = GroundSet(20)
    fn = modular({e: 1.0 for e in range(20)})
    with pytest.raises(EnumerationCapError, match="total_curvature"):
        matroid_curvature(fn, UniformMatroid(ground, 3))


def test_single_element_ground():
    ground = GroundSet(1)
    chosen, trace = greedy_maximize(modular({0: 2.0}), UniformMatroid(ground, 1))
    assert chosen == {0}
    assert matroid_curvature(modular({0: 2.0}), UniformMatroid(ground, 1)).value == 0.0
