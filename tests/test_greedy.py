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

    def score(groups):
        out = []
        for members, _, candidates, _ in groups:
            scored.append(list(candidates))
            out.append((table[np.ix_(candidates, members)], None))
        return out

    matroid = UniformMatroid(GroundSet(len(table)), 1)
    return greedy_sweep(score, matroid, bounds, bounds), scored


def assert_same_as_without_bounds(sweep, table, bounds):
    table = np.array(table, dtype=float)
    plain = greedy_sweep(lambda groups: [(table[np.ix_(c, m)], None) for m, _, c, _ in groups],
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


def test_settle_falls_back_beside_a_taller_group():
    # the second step has two groups: function 0 at {0} sits at its bound and
    # its first candidate scores NaN, while function 1 at {1} scores both of
    # its candidates in the same call, so the step's tables differ in height
    nan = float("nan")
    values = [{(0,): 1.0, (1,): 0.5, (2,): 0.5, (0, 1): nan, (0, 2): 1.0, (1, 2): 0.5},
              {(0,): 1.0, (1,): 2.0, (2,): 0.0, (0, 1): 3.0, (0, 2): 1.0, (1, 2): 2.5}]
    scored = []

    def score(groups):
        out = []
        for members, current, candidates, _ in groups:
            scored.append((sorted(current), list(candidates)))
            out.append((np.array([[values[i][tuple(sorted(current | {e}))]
                                   for i in members.tolist()] for e in candidates]), None))
        return out

    matroid = UniformMatroid(GroundSet(3), 2)
    sweep = greedy_sweep(score, matroid, [0.0, 0.0], [1.0, 10.0])
    assert ([0], [1]) in scored and ([0], [2]) in scored
    plain = greedy_sweep(score, matroid, [0.0, 0.0])
    assert sweep[0] == plain[0] == [frozenset({0, 2}), frozenset({0, 1})]
    assert np.array_equal(sweep[1], plain[1])
    for ours, theirs in zip(sweep[2], plain[2]):
        assert (ours.picks, ours.evaluations) == (theirs.picks, theirs.evaluations)


# ------------------------------------------------ skipping by stale gains

def two_step_sweep(values, margin=0.0, lazy_size=0):
    """greedy_sweep of one function over two picks; ``values`` maps a set of
    at most two ids (a tuple) to its value, the empty set is worth 0. The
    function keeps gains with the given margin. Returns the sweep, the
    candidate lists scored and the counts."""
    ground = 1 + max(e for key in values for e in key)
    scored, counts = [], {}

    def score(groups):
        out = []
        for _, current, candidates, floor in groups:
            scored.append(list(candidates))
            table = np.array([[values[tuple(sorted(current | {e}))]] for e in candidates])
            out.append((table, None if floor is None else table))
        return out

    sweep = greedy_sweep(score, UniformMatroid(GroundSet(ground), 2), [0.0],
                         [float("inf")], [margin], lazy_size, counts)
    return sweep, scored, counts


def assert_same_as_plain(sweep, values):
    ground = 1 + max(e for key in values for e in key)

    def fn(s):
        return values[tuple(sorted(s))] if s else 0.0

    expected, picks, evaluations = plain_greedy(fn, UniformMatroid(GroundSet(ground), 2))
    assert sweep[0] == [expected]
    assert sweep[2][0].picks == picks
    assert sweep[2][0].evaluations == evaluations


def test_stale_gain_below_the_best_is_skipped():
    # after {0}, element 1 may still gain 3 and element 2 only 1; element 1
    # gains 2.5, so 2's bound 5 + 1 < 7.5 rules it out
    values = {(0,): 5.0, (1,): 3.0, (2,): 1.0, (0, 1): 7.5, (0, 2): 5.5, (1, 2): 4.0}
    sweep, scored, counts = two_step_sweep(values)
    assert scored == [[0, 1, 2], [1]]
    [trace] = sweep[2]
    assert trace.picks == [(0, 5.0), (1, 2.5)]
    assert (trace.evaluations, trace.settled, trace.skipped) == (6, 1, 1)
    assert counts == {"stale": 1}
    assert_same_as_plain(sweep, values)


def test_stale_gain_that_ties_the_best_at_a_smaller_id_is_scored():
    # after {3}: element 1 has the largest bound (9) and scores 7; element 0
    # ties it (5 + 2) at a smaller id, so it is scored and, tying, wins;
    # element 2 ties it too at a larger id and is skipped
    values = {(3,): 5.0, (0,): 2.0, (1,): 4.0, (2,): 2.0,
              (0, 3): 7.0, (1, 3): 7.0, (2, 3): 7.0}
    values.update({key: 0.0 for key in [(0, 1), (0, 2), (1, 2)]})
    sweep, scored, counts = two_step_sweep(values)
    assert scored == [[0, 1, 2, 3], [1], [0]]
    [trace] = sweep[2]
    assert trace.picks == [(3, 5.0), (0, 2.0)]
    assert (trace.evaluations, trace.settled, trace.skipped) == (8, 0, 1)
    assert counts == {"stale": 1}
    assert_same_as_plain(sweep, values)


def test_margin_widens_the_stale_bound():
    # the same table as the skip test: a margin of 1.5 lifts element 2's
    # bound to 7.5, a tie at a larger id, and 2 lifts it past the best
    values = {(0,): 5.0, (1,): 3.0, (2,): 1.0, (0, 1): 7.5, (0, 2): 5.5, (1, 2): 4.0}
    assert two_step_sweep(values, margin=1.5)[1] == [[0, 1, 2], [1]]
    sweep, scored, _ = two_step_sweep(values, margin=2.0)
    assert scored == [[0, 1, 2], [1], [2]]
    assert_same_as_plain(sweep, values)


def test_group_below_the_size_rule_keeps_no_gains():
    values = {(0,): 5.0, (1,): 3.0, (2,): 1.0, (0, 1): 7.5, (0, 2): 5.5, (1, 2): 4.0}
    sweep, scored, counts = two_step_sweep(values, lazy_size=3)
    # the first group (3 candidates) keeps its gains, the second (2) is
    # below the rule and is scored in one call
    assert scored == [[0, 1, 2], [1, 2]]
    assert counts == {}
    assert_same_as_plain(sweep, values)


@pytest.mark.parametrize("where", ["first", "second"])
def test_nan_rows_lose_or_raise_with_stale_gains(where):
    nan = float("nan")
    values = {(0,): 5.0, (1,): 3.0, (2,): 1.0, (0, 1): 7.5, (0, 2): 5.5, (1, 2): 4.0}
    if where == "first":
        # a NaN singleton keeps no gain: its bound is the function's, so it
        # is the first call's candidate; NaN never wins and the rest is scored
        values[(2,)] = nan
        sweep, scored, _ = two_step_sweep(values)
        assert scored == [[0, 1, 2], [2], [1]]
    else:
        # element 1, the best bound, scores NaN at the second step: no best
        # value, so every candidate is scored and element 2 wins
        values[(0, 1)] = nan
        sweep, scored, _ = two_step_sweep(values)
        assert scored == [[0, 1, 2], [1], [2]]
    assert_same_as_plain(sweep, values)
    values[(0, 2)] = values[(0, 1)] = nan
    with pytest.raises(ValueError, match=r"greedy step from \[0\]: .*\[1, 2\] .*\[nan, nan\]"):
        two_step_sweep(values)


def test_no_margins_scores_as_before():
    # without margins no group keeps gains or asks for upper ends
    values = {(0,): 5.0, (1,): 3.0, (2,): 1.0, (0, 1): 7.5, (0, 2): 5.5, (1, 2): 4.0}
    scored = []

    def score(groups):
        [(_, current, candidates, floor)] = groups
        assert floor is None
        scored.append(list(candidates))
        return [(np.array([[values[tuple(sorted(current | {e}))]] for e in candidates]), None)]

    counts = {}
    sweep = greedy_sweep(score, UniformMatroid(GroundSet(3), 2), [0.0], [float("inf")],
                         lazy_size=0, counts=counts)
    assert scored == [[0, 1, 2], [1, 2]]
    assert counts == {}
    assert_same_as_plain(sweep, values)


@pytest.mark.parametrize("kind", ["uniform", "partition"])
def test_sweep_checks_no_set_it_built(monkeypatch, kind):
    # the loop grows every set from the matroid's own candidates, so it asks
    # for extensions unchecked: the solve validates no subset at all
    rng = np.random.default_rng(5)
    matroid = random_matroid(rng, GroundSet(9), kind)
    weights = rng.random((9, 3))

    def score(groups):
        return [(np.array([[sum(weights[e, j] for e in current | {c}) for j in members]
                           for c in candidates]), None)
                for members, current, candidates, _ in groups]

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
