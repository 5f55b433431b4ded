"""Matroid axioms, oracle behavior and serialization."""
from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvargreedy import (EnumerationCapError, GroundSet, PartitionMatroid,
                        UniformMatroid, matroid_from_json, matroid_to_json)
from cvargreedy.synthetic import random_matroid

from conftest import enumerate_feasible, powerset


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


@pytest.mark.parametrize("bad, message", [
    (True, "element ids must be integers, got True"),
    (np.True_, f"element ids must be integers, got {np.True_!r}"),
    (1.0, "element ids must be integers, got 1.0"),
    (-1, "element -1 outside ground set of size 3"),
    (3, "element 3 outside ground set of size 3"),
])
def test_check_subset_messages(bad, message):
    # bools and floats hash like the ids they equal, and must still fail
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GroundSet(3).check_subset({0, bad})


def test_check_subset_accepts_int_subclasses():
    class Id(int):
        pass

    g = GroundSet(3)
    assert g.check_subset([Id(2), 0]) == {0, 2}
    assert g.check_subset(iter([2, 0, 2])) == {0, 2}
    assert g.check_subset(()) == frozenset()


def test_numpy_integer_ids_count_as_ints():
    g = GroundSet(3)
    for ids in ({np.int64(1)}, [np.uint8(2), 0], np.array([0, 2])):
        s = g.check_subset(ids)
        assert s == {int(e) for e in ids} and {type(e) for e in s} == {int}
    assert uniform(3, 2).is_independent({np.int64(1)})
    assert not uniform(3, 2).is_independent(np.arange(3))
    assert PartitionMatroid(g, ({0, 1}, {2}), (1, 1)).extension_candidates(
        {np.int32(2)}) == {0, 1}
    with pytest.raises(ValueError, match="outside ground set"):
        g.check_subset({np.int64(3)})


@pytest.mark.parametrize("ids, message", [
    (np.array([[0, 1], [1, 3]]), "element 3 outside ground set of size 3"),
    (np.array([[-1, 0]]), "element -1 outside ground set of size 3"),
    (np.array([[True]]), "id rows must be a 2-d integer array, got a 2-d array of bool"),
    (np.array([[0.0, 1.0]]),
     "id rows must be a 2-d integer array, got a 2-d array of float64"),
    (np.array([0, 1]), "id rows must be a 2-d integer array, got a 1-d array of int64"),
    (np.array([[0, 1], [1, 1]]), "the ids of each row must be strictly ascending"),
    (np.array([[0, 1], [2, 1]]), "the ids of each row must be strictly ascending"),
    (np.array([[2, 1]], np.uint8), "the ids of each row must be strictly ascending"),
])
def test_check_rows_rejects(ids, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GroundSet(3).check_rows(ids)


def test_check_rows_accepts_any_integer_dtype():
    g = GroundSet(3)
    for ids in (np.array([[0, 1], [1, 2]], np.uint8), np.array([[0, 2]], np.int32),
                np.empty((0, 2), np.intp), np.empty((4, 0), np.int64)):
        assert g.check_rows(ids) is ids


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


@pytest.mark.parametrize("build, message", [
    (lambda bad: GroundSet(bad), "size must be an integer"),
    (lambda bad: UniformMatroid(GroundSet(3), bad), "k must be an integer"),
    (lambda bad: partition(3, [{0, 1}, {2}], [1, bad]),
     r"capacities\[1\] must be an integer"),
], ids=["ground-set-size", "uniform-k", "partition-capacity"])
def test_sizes_and_capacities_must_be_integers(build, message):
    # int() would truncate 1.7 to 1 and take True for 1, and a float k
    # would be written to JSON that matroid_from_json rejects
    for bad in (2.5, 1.7, True, "2", float("inf")):
        with pytest.raises(ValueError, match=message):
            build(bad)
    built = build(2.0)  # an integral float is read as its int
    assert repr(built) == repr(build(2))  # 2, not 2.0


def test_partition_block_entries_must_be_integers():
    # True hashes as 1 and would be written to JSON as true, which
    # matroid_from_json rejects; an integral float is read as its int
    for bad in (True, 1.7, "1"):
        with pytest.raises(ValueError, match=r"matroid blocks\[0\] entry must be an integer"):
            partition(2, [{bad}, {0}], [1, 1])
    assert partition(2, [{1.0}, {0}], [1, 1]) == partition(2, [{1}, {0}], [1, 1])


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
    assert enumerate_feasible(m) == [frozenset(), {0}, {1}, {0, 1}]


def test_enumerate_feasible_partition():
    m = partition(3, [{0, 1}, {2}], [1, 1])
    assert enumerate_feasible(m) == [frozenset(), {0}, {1}, {2}, {0, 2}, {1, 2}]


def test_enumerate_feasible_cap():
    m = uniform(17, 3)
    with pytest.raises(EnumerationCapError, match="17 elements"):
        enumerate_feasible(m)
    with pytest.raises(EnumerationCapError, match="17 elements"):
        m.feasible_masks()


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


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14),
       kind=st.sampled_from(["uniform", "partition"]), fill=st.floats(0, 1))
def test_extension_rule_matches_the_generic_rule(seed, n, kind, fill):
    # random blocks (not contiguous runs) and random independent subsets,
    # grown greedily until about ``fill`` of the rank is used
    rng = np.random.default_rng(seed)
    m = random_matroid(rng, GroundSet(n), kind)
    s = frozenset()
    for e in rng.permutation(n).tolist():
        if rng.random() < fill and m.is_independent(s | {e}):
            s = s | {e}
    got = m.extension_candidates(s)
    assert type(got) is frozenset
    assert got == frozenset(e for e in range(n)
                            if e not in s and m.is_independent(s | {e}))
    assert m._extension_candidates(s) == got  # the unchecked rule the greedy calls
    dependent = next((s | {e} for e in range(n) if e not in s
                      and not m.is_independent(s | {e})), None)
    if dependent is not None:
        with pytest.raises(ValueError, match="independent sets only"):
            m.extension_candidates(dependent)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14),
       kind=st.sampled_from(["uniform", "partition"]))
def test_next_candidates_match_the_extension_rule(seed, n, kind):
    # the greedy derives a child set's candidates from its parent's; along a
    # random chain of picks from the empty set to a basis they must be the
    # rule's own, in ascending order
    rng = np.random.default_rng(seed)
    m = random_matroid(rng, GroundSet(n), kind)
    s, candidates = frozenset(), sorted(m._extension_candidates(frozenset()))
    while candidates:
        e = candidates[int(rng.integers(len(candidates)))]
        s = s | {e}
        candidates = m._next_candidates(candidates, e, s)
        assert candidates == sorted(m._extension_candidates(s))
    assert len(s) == len(max(enumerate_feasible(m), key=len))  # a basis


def _assert_family_matches_powerset_filter(m):
    expected = [frozenset(c) for c in powerset(m.ground.elements)
                if m.is_independent(frozenset(c))]
    family, masks = enumerate_feasible(m), m.feasible_masks()
    # same sets in the same order: size-major, lexicographic inside each size
    assert family == expected
    assert family == sorted(family, key=lambda s: (len(s), sorted(s)))
    assert masks.dtype == np.int64
    assert masks.tolist() == [sum(1 << e for e in s) for s in family]


@settings(max_examples=60, deadline=None)
@given(small_matroids())
def test_enumerate_feasible_matches_powerset_filter(m):
    _assert_family_matches_powerset_filter(m)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       kind=st.sampled_from(["uniform", "partition"]))
def test_feasible_masks_match_powerset_filter(seed, n, kind):
    # random blocks (not contiguous runs), as the audit's instances have
    m = random_matroid(np.random.default_rng(seed), GroundSet(n), kind)
    _assert_family_matches_powerset_filter(m)


@pytest.mark.parametrize("m", [
    uniform(16, 8),
    partition(16, [range(b, 16, 4) for b in range(4)], [2, 2, 2, 2]),
], ids=["uniform", "partition"])
def test_feasible_masks_at_the_enumeration_cap(m):
    _assert_family_matches_powerset_filter(m)


def test_feasible_masks_are_built_once_per_matroid(monkeypatch):
    # a matroid is immutable: its family is built on the first call and
    # every later call returns the same read-only array; an equal matroid
    # builds its own, and the cap still refuses every call
    built = []
    unpack = np.unpackbits
    monkeypatch.setattr(np, "unpackbits", lambda *a, **k: built.append(1) or unpack(*a, **k))
    m = partition(6, [{0, 3}, {1, 2, 4}, {5}], [1, 2, 1])
    masks = m.feasible_masks()
    assert m.feasible_masks() is masks and len(built) == 1
    assert not masks.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        masks[0] = 1
    twin = partition(6, [{0, 3}, {1, 2, 4}, {5}], [1, 2, 1])
    assert twin == m and twin.feasible_masks() is not masks
    assert np.array_equal(twin.feasible_masks(), masks) and len(built) == 2
    for _ in range(2):
        with pytest.raises(EnumerationCapError):
            uniform(17, 2).feasible_masks()


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


def test_json_round_trip_partition_with_numpy_ids():
    # numpy ids are read as ints, so the description is plain JSON
    m = partition(4, [{np.int64(0), 3}, {np.int32(1), np.uint8(2)}], [1, 2])
    assert {*map(type, m.blocks[0] | m.blocks[1])} == {int}
    text = json.dumps(matroid_to_json(m))
    assert matroid_from_json(json.loads(text)) == m == partition(4, [{0, 3}, {1, 2}], [1, 2])


def test_json_unknown_type():
    with pytest.raises(ValueError):
        matroid_from_json({"ground_size": 2, "matroid": {"type": "graphic"}})
