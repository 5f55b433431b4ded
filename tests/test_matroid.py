"""Matroid axioms, oracle behavior and serialization."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvargreedy import (EnumerationCapError, GroundSet, PartitionMatroid,
                        UniformMatroid, matroid_from_json, matroid_to_json)

from conftest import powerset


def uniform(n, k, labels=None):
    return UniformMatroid(GroundSet(n, labels), k)


def partition(n, blocks, caps):
    return PartitionMatroid(GroundSet(n), tuple(frozenset(b) for b in blocks),
                            tuple(caps))


# ---------------------------------------------------------------- ground set

def test_ground_set_requires_elements():
    with pytest.raises(ValueError):
        GroundSet(0)


def test_ground_set_labels_must_match():
    with pytest.raises(ValueError):
        GroundSet(2, ("a",))
    g = GroundSet(2, ("a", "b"))
    assert g.label(1) == "b"
    assert GroundSet(2).label(1) == "1"


def test_ground_set_rejects_foreign_elements():
    g = GroundSet(3)
    with pytest.raises(ValueError):
        g.check_subset({3})
    with pytest.raises(ValueError):
        g.check_subset({-1})
    with pytest.raises(ValueError):
        g.check_subset({"a"})


# ------------------------------------------------------------- independence

def test_uniform_independence():
    m = uniform(3, 2)
    assert m.is_independent(frozenset())
    assert m.is_independent({0, 2})
    assert not m.is_independent({0, 1, 2})


def test_uniform_capacity_validation():
    with pytest.raises(ValueError):
        uniform(3, 0)


def test_partition_independence():
    m = partition(3, [{0, 1}, {2}], [1, 1])
    assert m.is_independent({0, 2})
    assert not m.is_independent({0, 1})


def test_partition_validation():
    with pytest.raises(ValueError):  # overlap
        partition(3, [{0, 1}, {1, 2}], [1, 1])
    with pytest.raises(ValueError):  # element 2 uncovered
        partition(3, [{0, 1}], [1])
    with pytest.raises(ValueError):  # capacity count mismatch
        partition(3, [{0, 1}, {2}], [1])
    with pytest.raises(ValueError):  # zero capacity
        partition(3, [{0, 1}, {2}], [1, 0])
    with pytest.raises(ValueError):  # unknown element
        partition(3, [{0, 1}, {2, 5}], [1, 1])


# ---------------------------------------------------------------- extension

def test_extension_candidates_uniform():
    m = uniform(4, 2)
    assert m.extension_candidates({0}) == {1, 2, 3}
    assert m.extension_candidates({0, 1}) == frozenset()


def test_extension_candidates_partition():
    m = partition(4, [{0, 1}, {2, 3}], [1, 1])
    assert m.extension_candidates({0}) == {2, 3}


def test_extension_candidates_require_independent_input():
    m = uniform(4, 1)
    with pytest.raises(ValueError):
        m.extension_candidates({0, 1})


# -------------------------------------------------------------- enumeration

def test_enumerate_feasible_uniform_order():
    m = uniform(2, 2)
    assert m.enumerate_feasible() == [frozenset(), {0}, {1}, {0, 1}]


def test_enumerate_feasible_partition():
    m = partition(3, [{0, 1}, {2}], [1, 1])
    assert m.enumerate_feasible() == [frozenset(), {0}, {1}, {2}, {0, 2}, {1, 2}]


def test_enumerate_feasible_cap():
    m = uniform(17, 3)
    with pytest.raises(EnumerationCapError):
        m.enumerate_feasible()
    assert len(m.enumerate_feasible(cap=17)) == sum(
        1 for s in powerset(range(17)) if len(s) <= 3)


# ------------------------------------------------------- axioms (exhaustive)

@st.composite
def small_matroids(draw):
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return uniform(n, draw(st.integers(1, n)))
    if n == 1:
        cuts = []
    else:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
    bounds = [0] + cuts + [n]
    blocks = [set(range(bounds[i], bounds[i + 1])) for i in range(len(bounds) - 1)]
    caps = [draw(st.integers(1, len(b))) for b in blocks]
    return partition(n, blocks, caps)


@settings(max_examples=60, deadline=None)
@given(small_matroids())
def test_downward_closure(m):
    for combo in powerset(m.ground.elements):
        s = frozenset(combo)
        if m.is_independent(s):
            for e in s:
                assert m.is_independent(s - {e})


@settings(max_examples=60, deadline=None)
@given(small_matroids())
def test_exchange_property(m):
    feasible = [frozenset(c) for c in powerset(m.ground.elements)
                if m.is_independent(frozenset(c))]
    for p in feasible:
        for s in feasible:
            if len(p) < len(s):
                assert any(m.is_independent(p | {e}) for e in s - p)


@settings(max_examples=60, deadline=None)
@given(small_matroids())
def test_extension_candidates_match_definition(m):
    for combo in powerset(m.ground.elements):
        s = frozenset(combo)
        if not m.is_independent(s):
            continue
        expected = frozenset(e for e in m.ground.elements
                             if e not in s and m.is_independent(s | {e}))
        assert m.extension_candidates(s) == expected


@settings(max_examples=60, deadline=None)
@given(small_matroids())
def test_enumerate_feasible_matches_powerset_filter(m):
    expected = [frozenset(c) for c in powerset(m.ground.elements)
                if m.is_independent(frozenset(c))]
    got = m.enumerate_feasible()
    # same sets in the same order: size-major, lexicographic inside each size
    assert got == expected
    assert got == sorted(got, key=lambda s: (len(s), sorted(s)))


# ------------------------------------------------------------ serialization

def test_json_round_trip_uniform():
    m = uniform(5, 2, labels=tuple("abcde"))
    data = matroid_to_json(m)
    assert data == {"ground_size": 5, "matroid": {"type": "uniform", "k": 2}}
    back = matroid_from_json(data, labels=tuple("abcde"))
    assert back == m


def test_json_round_trip_partition():
    m = partition(4, [{0, 3}, {1, 2}], [1, 2])
    data = matroid_to_json(m)
    assert data["matroid"]["type"] == "partition"
    assert matroid_from_json(data) == m


def test_json_unknown_type():
    with pytest.raises(ValueError):
        matroid_from_json({"ground_size": 2, "matroid": {"type": "graphic"}})
