"""Stochastic set-utility contract and scenario sampling plumbing.

An objective assigns a nonnegative utility f(S, y) to a set S of elements
under a sampled realization y. Per scenario the utility must be normalized
(f(empty, y) = 0), monotone nondecreasing and submodular in S. Scenario
batches are fully reproducible from an integer seed. The batched
``set_utilities`` scores sets of one size given as one (sets x size) integer
array of ascending id rows, checked once per call (``GroundSet.check_rows``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .matroid import GroundSet, Matroid, _integer

_SEED_MASK = (1 << 64) - 1


def _u64(seed: int) -> int:
    return int(seed) & _SEED_MASK


def child_seed(seed: int, stream: int) -> int:
    """Derive a decorrelated 64-bit seed for a numbered substream.

    Deterministic across platforms (uses numpy's SeedSequence hashing).
    """
    ss = np.random.SeedSequence([_u64(seed), _u64(stream)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class ScenarioSet:
    """A fixed batch of realizations, reproducible from (objective, seed).

    ``data`` is an array (or tuple of arrays) whose leading dimension is the
    batch size; scenario i is row i of every array.
    """

    data: Any
    size: int
    seed: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"scenario set needs at least one sample, got {self.size}")
        arrays = self.data if isinstance(self.data, tuple) else (self.data,)
        for arr in arrays:
            if len(arr) != self.size:
                raise ValueError(
                    f"payload has leading dimension {len(arr)}, expected {self.size}")

    def __len__(self) -> int:
        return self.size


def check_sample_count(count: int) -> int:
    count = _integer(count, "sample count")
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    return count


class StochasticObjective:
    """Base class for stochastic monotone submodular set utilities.

    Subclasses set ``ground``, ``matroid`` and ``gamma_hint`` (an upper bound
    on any attainable utility, used as the default top of the tau sweep) and
    implement ``sample_scenarios`` plus ``utilities``, the per-scenario
    utilities of one set over a whole batch. ``utilities`` validates the set
    and defines the objective.

    Every batched caller reads through ``set_utilities``: brute force and
    exact curvature once per block of feasible sets, the greedy once per
    group through ``extension_utilities`` (the sets S + e). The defaults
    call ``utilities`` once per set; a subclass may override either hook
    with a batched kernel whose rows are bit-equal to those calls.
    """

    ground: GroundSet
    matroid: Matroid
    gamma_hint: float

    def sample_scenarios(self, count: int, seed: int) -> ScenarioSet:
        raise NotImplementedError

    def utilities(self, subset, scenarios: ScenarioSet) -> np.ndarray:
        """Per-scenario utilities of ``subset`` as a float array."""
        raise NotImplementedError

    def set_utilities(self, ids: np.ndarray, scenarios: ScenarioSet) -> np.ndarray:
        """Per-scenario utilities of the sets of one size given as id rows.

        Row i of the (sets x samples) result is ``utilities(frozenset(
        ids[i].tolist()), scenarios)`` bit for bit. Validates ``ids`` once
        with ``ground.check_rows``; an override must do the same.
        """
        ids = self.ground.check_rows(ids)
        out = np.empty((len(ids), len(scenarios)))
        for i, row in enumerate(ids.tolist()):
            out[i] = self.utilities(frozenset(row), scenarios)
        return out

    def extension_utilities(self, subset, candidates,
                            scenarios: ScenarioSet) -> np.ndarray:
        """Utilities of every one-element extension of ``subset``.

        Returns a (len(candidates) x samples) array whose row i is
        ``utilities(subset | {candidates[i]}, scenarios)``. Validates
        ``subset`` once. The candidates are element ids outside ``subset``
        (as the matroid's ``extension_candidates`` gives them); an override
        need not re-check them. The default scores the sorted id rows of S + e,
        so an objective whose bits depend on frozenset order must override it.
        """
        subset = sorted(self.ground.check_subset(subset))
        rows = np.empty((len(candidates), len(subset) + 1), dtype=np.intp)
        rows[:, :-1], rows[:, -1] = subset, candidates
        rows.sort(axis=1)
        return self.set_utilities(rows, scenarios)
