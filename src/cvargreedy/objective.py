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
from itertools import chain
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
    exact curvature once per block of feasible sets, the greedy through
    ``extension_utilities`` (the sets S + e), once per step for all its
    groups whose rows fit one block. The defaults call ``utilities`` once
    per set; a subclass may override either hook with a batched kernel
    whose rows are bit-equal to those calls.

    ``utility_rounding`` is None unless a subclass declares a number rho in
    [0, 1): then each computed utility f~(S, y) lies within rho*f(S, y) of a
    real utility f that is nonnegative, monotone and submodular in S per
    scenario, and the greedy skips candidates whose stale gains cannot win
    (``sga._stale_margins``). Without it every candidate is scored.
    """

    ground: GroundSet
    matroid: Matroid
    gamma_hint: float
    utility_rounding: float | None = None

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

    def extension_utilities(self, groups, scenarios: ScenarioSet) -> np.ndarray:
        """Utilities of the one-element extensions of several subsets.

        ``groups`` is a list of (subset, candidates) pairs whose subsets have
        one size, as the sets of one greedy step do; the candidates are
        element ids outside their subset (those that keep it independent,
        in the greedy). Returns an (extensions x
        samples) array with the rows of each group after those of the group
        before: row i of a group is ``utilities(subset | {candidates[i]},
        scenarios)``. The default scores the sorted id rows of every S + e
        with one ``set_utilities`` call, whose ``check_rows`` validates all
        the ids once; so an objective whose bits depend on frozenset order
        must override it. An override must validate each subset, and need
        not re-check the candidates.
        """
        return self.set_utilities(_extension_ids(groups), scenarios)


def _extension_ids(groups) -> np.ndarray:
    """The ascending id rows of every S + e of ``extension_utilities``'
    groups, for ``GroundSet.check_rows``: ids keep their dtype, so a float
    id fails the check instead of being truncated. A bool id of a subset or
    a candidate, which numpy would read as 0 or 1 beside integers, is
    refused here."""
    held = [sorted(subset) for subset, _ in groups]
    size = len(held[0]) if held else 0
    if any(len(ids) != size for ids in held):
        raise ValueError("the subsets of one extension_utilities call must have one size")
    added = [e for _, candidates in groups for e in candidates]
    for e in (e for e in chain(*held, added) if isinstance(e, (bool, np.bool_))):
        raise ValueError(f"element ids must be integers, got {e!r}")
    held, added = (a if a.size else a.astype(np.intp)
                   for a in (np.array(held), np.array(added)))
    rows = np.repeat(held.reshape(len(groups), size), [len(c) for _, c in groups], axis=0)
    rows = np.concatenate([rows, added[:, None]], axis=1)
    rows.sort(axis=1)
    return rows
