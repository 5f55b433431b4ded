"""Ground sets and matroid independence systems (uniform and partition).

Elements are dense integer ids 0..n-1 so that objectives can index numpy
arrays directly. Sets are passed around as plain ``frozenset[int]``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

# enumerate_feasible scans the full powerset; past 16 elements that is 65k+
# subsets and almost certainly a mistake by the caller.
ENUMERATION_CAP = 16


class EnumerationCapError(ValueError):
    """Subset enumeration refused because the ground set exceeds the cap."""


@dataclass(frozen=True)
class GroundSet:
    """Element ids 0..size-1 with optional display labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
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
        """Validate ids and return the subset as a frozenset."""
        s = frozenset(subset)
        for e in s:
            if not isinstance(e, (int,)) or isinstance(e, bool):
                raise ValueError(f"element ids must be integers, got {e!r}")
            if not 0 <= e < self.size:
                raise ValueError(
                    f"element {e} outside ground set of size {self.size}")
        return s


class Matroid:
    """Independence oracle base class. Instances are immutable and pure.

    Subclasses implement ``_independent``; the public methods validate their
    argument once and then apply it unchecked.
    """

    ground: GroundSet

    def is_independent(self, subset: Iterable[int]) -> bool:
        """Validate the element ids, then apply the independence rule."""
        return self._independent(self.ground.check_subset(subset))

    def _independent(self, s: frozenset[int]) -> bool:
        """The independence rule on a frozenset of valid ids (not re-checked)."""
        raise NotImplementedError

    def extension_candidates(self, subset: Iterable[int]) -> frozenset[int]:
        """All elements s outside the (independent) subset with subset+s independent."""
        s = self.ground.check_subset(subset)
        if not self._independent(s):
            raise ValueError("extension candidates are defined for independent sets only")
        return frozenset(
            e for e in self.ground.elements
            if e not in s and self._independent(s | {e})
        )

    def enumerate_feasible(self, cap: int = ENUMERATION_CAP) -> list[frozenset[int]]:
        """Every independent subset, empty set included, in (size, lexicographic) order.

        Stops at the first size without an independent set: independence is
        hereditary, so no larger set can be independent either.
        """
        n = self.ground.size
        if n > cap:
            raise EnumerationCapError(
                f"ground set of size {n} exceeds the enumeration cap {cap}; "
                "raise the cap explicitly if you really want 2^n subsets")
        feasible: list[frozenset[int]] = []
        for r in range(n + 1):
            found = [s for s in map(frozenset, combinations(range(n), r))
                     if self._independent(s)]
            if not found:
                break
            feasible += found
        return feasible

    def fragment(self) -> dict:
        """JSON-serializable description of the independence rule."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformMatroid(Matroid):
    """Independent iff the subset has at most k elements."""

    ground: GroundSet
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"capacity must be at least 1, got k={self.k}")

    def _independent(self, s: frozenset[int]) -> bool:
        return len(s) <= self.k

    def fragment(self) -> dict:
        return {"type": "uniform", "k": self.k}


@dataclass(frozen=True)
class PartitionMatroid(Matroid):
    """Blocks partition the ground set; block i may contribute at most capacities[i]."""

    ground: GroundSet
    blocks: tuple[frozenset[int], ...]
    capacities: tuple[int, ...]
    _block_of: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        blocks = tuple(frozenset(b) for b in self.blocks)
        capacities = tuple(int(c) for c in self.capacities)
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
        object.__setattr__(self, "_block_of", block_of)

    def _independent(self, s: frozenset[int]) -> bool:
        used = [0] * len(self.blocks)
        for e in s:
            bi = self._block_of[e]
            used[bi] += 1
            if used[bi] > self.capacities[bi]:
                return False
        return True

    def fragment(self) -> dict:
        return {
            "type": "partition",
            "blocks": [sorted(b) for b in self.blocks],
            "capacities": list(self.capacities),
        }


def matroid_to_json(matroid: Matroid) -> dict:
    """Serialize as {"ground_size": n, "matroid": {...rule...}}."""
    return {"ground_size": matroid.ground.size, "matroid": matroid.fragment()}


def matroid_from_json(data: dict, labels: tuple[str, ...] | None = None) -> Matroid:
    ground = GroundSet(int(data["ground_size"]), labels)
    frag = data["matroid"]
    kind = frag.get("type")
    if kind == "uniform":
        return UniformMatroid(ground, int(frag["k"]))
    if kind == "partition":
        return PartitionMatroid(
            ground,
            tuple(frozenset(int(e) for e in b) for b in frag["blocks"]),
            tuple(int(c) for c in frag["capacities"]),
        )
    raise ValueError(f"unknown matroid type {kind!r}")
