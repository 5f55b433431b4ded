"""Ground sets and matroid independence systems (uniform and partition).

Elements are dense integer ids 0..n-1 so that objectives can index numpy
arrays directly. Sets are passed around as plain ``frozenset[int]``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

# the feasible family (_feasible_masks) is built from a bit table of the full
# powerset; past 16 elements that is 65k+ subsets and almost certainly a
# mistake by the caller.
ENUMERATION_CAP = 16


class EnumerationCapError(ValueError):
    """Subset enumeration refused because the ground set exceeds the cap."""


def _integer(value, name: str) -> int:
    """An integral number as an int; otherwise a ValueError naming ``name``.

    ``int()`` would truncate 0.5 to 0 and 2.7 to 2, and accepts ``True``.
    A plain int is returned before the other tests: partition blocks send
    every entry through here."""
    if type(value) is int:
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)):
        if math.isinf(value):
            raise ValueError(f"{name} must be an integer, got "
                             f"{'-' if value < 0 else ''}infinity")
        if float(value).is_integer():
            return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r} "
                     f"({type(value).__name__})")


@dataclass(frozen=True)
class GroundSet:
    """Element ids 0..size-1 with optional display labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", _integer(self.size, "ground set size"))
        if self.size < 1:
            raise ValueError(f"ground set needs at least one element, got size={self.size}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.size:
                raise ValueError(
                    f"expected {self.size} labels, got {len(self.labels)}")

    @property
    def elements(self) -> range:
        return range(self.size)

    def label(self, element: int) -> str:
        if self.labels is None:
            return str(element)
        return self.labels[element]

    def check_subset(self, subset: Iterable[int]) -> frozenset[int]:
        """Validate ids and return the subset as a frozenset of ints.

        Bools, ``np.bool_``, floats and ids outside the ground set raise a
        ``ValueError`` naming the first bad id; numpy integer ids pass."""
        s = frozenset(subset)
        for e in s:
            if isinstance(e, bool) or not isinstance(e, (int, np.integer)):
                raise ValueError(f"element ids must be integers, got {e!r}")
            if not 0 <= e < self.size:
                raise ValueError(
                    f"element {e} outside ground set of size {self.size}")
        return s if all(type(e) is int for e in s) else frozenset(map(int, s))

    def check_rows(self, ids) -> np.ndarray:
        """Validate a batch of sets of one size and return it: a (sets x size)
        integer array whose rows are the sets' ids, strictly ascending."""
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.dtype.kind not in "iu":
            raise ValueError("id rows must be a 2-d integer array, got a "
                             f"{ids.ndim}-d array of {ids.dtype}")
        outside = (ids < 0) | (ids >= self.size)
        if outside.any():
            raise ValueError(f"element {ids[outside][0]} outside ground set "
                             f"of size {self.size}")
        if (ids[:, 1:] <= ids[:, :-1]).any():
            raise ValueError("the ids of each row must be strictly ascending")
        return ids


class Matroid:
    """A set is independent iff it holds at most capacities[i] elements of blocks[i].

    A uniform matroid is one block of every element with capacity k.
    Instances are immutable and pure; ``is_independent`` validates its
    argument, and the greedy's ``_next_candidates`` takes valid ids
    unchecked."""

    ground: GroundSet
    blocks: tuple[frozenset[int], ...]
    capacities: tuple[int, ...]
    _block_of: tuple[int, ...]  # the block of each element

    def is_independent(self, subset: Iterable[int]) -> bool:
        """Validate the element ids, then apply the independence rule."""
        used = [0] * len(self.blocks)
        for e in self.ground.check_subset(subset):
            used[self._block_of[e]] += 1
        return all(u <= c for u, c in zip(used, self.capacities))

    def _next_candidates(self, candidates: list[int], e: int,
                         child: frozenset[int]) -> list[int]:
        """The extension candidates of ``child`` = S | {e} (the elements
        outside it whose block is below capacity), from ``candidates``,
        those of S, in their order: e goes, and the rest of e's block with
        it if e fills the block."""
        block = self._block_of
        b = block[e]
        if sum(block[x] == b for x in child) < self.capacities[b]:
            return [x for x in candidates if x != e]
        return [x for x in candidates if block[x] != b]

    def feasible_masks(self) -> np.ndarray:
        """Every independent subset as an int64 bitmask (bit e = element e).

        In (size, lexicographic) order, from the block counts of a uint8 bit
        table of the powerset; a set holding the smaller element sorts first.
        A matroid is immutable, so the array is built on the first call and
        kept on the instance, read-only, for every later one."""
        return self._feasible_masks

    @cached_property
    def _feasible_masks(self) -> np.ndarray:
        n = self.ground.size
        if n > ENUMERATION_CAP:
            raise EnumerationCapError(f"the ground set has {n} elements, more than "
                                      f"the enumeration cap of {ENUMERATION_CAP}")
        masks = np.arange(1 << n, dtype="<i8")  # byte j holds bits 8j..8j+7
        bits = np.unpackbits(masks.view(np.uint8).reshape(-1, 8), axis=1, count=n,
                             bitorder="little")
        membership = np.zeros((n, len(self.blocks)), np.uint8)
        membership[np.arange(n), self._block_of] = 1
        keep = (bits @ membership <= np.array(self.capacities)).all(axis=1)
        masks, bits = masks[keep], bits[keep]
        masks = masks[np.lexsort((*(1 - bits.T[::-1]), bits.sum(axis=1)))]
        masks.flags.writeable = False
        return masks

    def fragment(self) -> dict:
        """JSON-serializable description of the independence rule."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformMatroid(Matroid):
    """Independent iff the subset has at most k elements: one block of capacity k."""

    ground: GroundSet
    k: int
    blocks: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    capacities: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _block_of: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _integer(self.k, "matroid k"))
        if self.k < 1:
            raise ValueError(f"capacity must be at least 1, got k={self.k}")
        object.__setattr__(self, "blocks", (frozenset(self.ground.elements),))
        object.__setattr__(self, "capacities", (self.k,))
        object.__setattr__(self, "_block_of", (0,) * self.ground.size)

    def fragment(self) -> dict:
        return {"type": "uniform", "k": self.k}


@dataclass(frozen=True)
class PartitionMatroid(Matroid):
    """Blocks partition the ground set; block i may contribute at most capacities[i]."""

    ground: GroundSet
    blocks: tuple[frozenset[int], ...]
    capacities: tuple[int, ...]
    _block_of: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        blocks = tuple(frozenset(_integer(e, f"matroid blocks[{i}] entry") for e in b)
                       for i, b in enumerate(self.blocks))
        capacities = tuple(_integer(c, f"matroid capacities[{i}]")
                           for i, c in enumerate(self.capacities))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "capacities", capacities)
        if len(blocks) != len(capacities):
            raise ValueError("one capacity per block required")
        if any(c < 1 for c in capacities):
            raise ValueError("block capacities must be at least 1")
        block_of: dict[int, int] = {}
        for bi, b in enumerate(blocks):
            if not b:
                raise ValueError("empty blocks are not allowed")
            for e in b:
                if e in block_of:
                    raise ValueError(f"element {e} appears in more than one block")
                block_of[e] = bi
        missing = set(self.ground.elements) - set(block_of)
        extra = set(block_of) - set(self.ground.elements)
        if missing or extra:
            raise ValueError(
                f"blocks must cover the ground set exactly (missing={sorted(missing)}, "
                f"unknown={sorted(extra)})")
        object.__setattr__(self, "_block_of",
                           tuple(block_of[e] for e in self.ground.elements))

    def fragment(self) -> dict:
        return {
            "type": "partition",
            "blocks": [sorted(b) for b in self.blocks],
            "capacities": list(self.capacities),
        }


def _mask_ids(masks: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Int64 bitmasks over n elements, sorted by size, as ascending id rows:
    one (sets x size) array per size. Lazy, so a reader that stops early
    never builds the larger sizes."""
    bits = np.unpackbits(masks.view(np.uint8).reshape(-1, 8), axis=1, count=n,
                         bitorder="little")
    start = 0
    for r, rows in enumerate(np.bincount(bits.sum(axis=1)).tolist()):
        yield np.nonzero(bits[start:start + rows])[1].reshape(rows, r)
        start += rows


def matroid_to_json(matroid: Matroid) -> dict:
    """Serialize as {"ground_size": n, "matroid": {...rule...}}."""
    return {"ground_size": matroid.ground.size, "matroid": matroid.fragment()}


def matroid_from_json(data: dict, labels: tuple[str, ...] | None = None) -> Matroid:
    ground = GroundSet(_integer(data["ground_size"], "ground_size"), labels)
    frag = data["matroid"]
    if not isinstance(frag, dict):
        raise ValueError(f"matroid must be a JSON object, got {type(frag).__name__}")
    kind = frag.get("type")
    if kind == "uniform":
        return UniformMatroid(ground, frag["k"])
    if kind == "partition":
        return PartitionMatroid(ground, tuple(frag["blocks"]), tuple(frag["capacities"]))
    raise ValueError(f"unknown matroid type {kind!r}")
