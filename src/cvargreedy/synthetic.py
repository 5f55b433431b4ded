"""Seeded random stochastic submodular instances.

Used to exercise the solver and its guarantees on small ground sets where
brute force is tractable. Utility per scenario is weighted coverage by the
elements that fired, plus a small always-positive modular term, so every
singleton has strictly positive value in every scenario (the curvature
ratios stay well defined).
"""
from __future__ import annotations

import numpy as np

from . import sga
from .matroid import GroundSet, Matroid, PartitionMatroid, UniformMatroid
from .objective import (ScenarioSet, StochasticObjective, _u64,
                        check_sample_count)

_FACTOR_LO, _FACTOR_HI = 0.5, 1.5


class RandomCoverageObjective(StochasticObjective):
    """Random weighted-coverage utility with Bernoulli element activation.

    f(S, y) = sum of cell weights covered by the elements of S that fired in y
              + sum over S of modular_base * per-scenario factor in [0.5, 1.5].
    Scenario payload: (fire bits (n,), modular factors (n,)).
    """

    def __init__(self, cover: np.ndarray, cell_weights: np.ndarray,
                 fire_prob: np.ndarray, modular_base: np.ndarray,
                 matroid: Matroid, seed: int = 0):
        self._cover = np.asarray(cover, dtype=bool)
        self._cover_f = self._cover.astype(np.float32)
        self.cell_weights = np.asarray(cell_weights, dtype=float)
        self.fire_prob = np.asarray(fire_prob, dtype=float)
        self.modular_base = np.asarray(modular_base, dtype=float)
        n = self._cover.shape[0]
        if not (len(self.fire_prob) == len(self.modular_base) == n):
            raise ValueError("per-element arrays must agree with the cover matrix")
        if np.any(self.modular_base <= 0):
            raise ValueError("modular base weights must be positive")
        self.ground = matroid.ground
        if self.ground.size != n:
            raise ValueError("matroid ground size does not match the cover matrix")
        self.matroid = matroid
        self.seed = int(seed)
        self.gamma_hint = float(self.cell_weights.sum()
                                + _FACTOR_HI * self.modular_base.sum())

    def sample_scenarios(self, count: int, seed: int) -> ScenarioSet:
        count = check_sample_count(count)
        rng = np.random.default_rng(_u64(seed))
        n = self.ground.size
        bits = (rng.random((count, n)) < self.fire_prob).astype(np.uint8)
        factors = rng.uniform(_FACTOR_LO, _FACTOR_HI, (count, n))
        return ScenarioSet((bits, factors), count, int(seed))

    def utilities(self, subset, scenarios: ScenarioSet) -> np.ndarray:
        ids = sorted(self.ground.check_subset(subset))
        return self.set_utilities(np.array(ids, dtype=np.intp)[None], scenarios)[0]

    def set_utilities(self, ids: np.ndarray, scenarios: ScenarioSet) -> np.ndarray:
        """The utilities of every id row, batched.

        ``utilities`` is the batch of one set. Row i does not depend on the
        other rows: it is bit-equal to scoring that set with one plain
        matrix-vector product per term. The cover counts are exact small
        integers in float32, and numpy runs each stacked float matmul as one
        matrix-vector product per set when the operands have the same
        layout. ``factors[:, ids]`` is column-major, so the modular operand
        is built column-major per set too; a C-order batch changes the last
        bits of the sum for sets of three or more elements. The rows go in
        chunks whose (sets x samples x max(size, cells)) temporaries stay
        within sga._BLOCK_FLOATS floats.
        """
        ids = np.ascontiguousarray(self.ground.check_rows(ids))  # gathers take its layout
        bits, factors = scenarios.data
        out = np.empty((len(ids), len(scenarios)))
        width = len(scenarios) * max(ids.shape[1], self.cell_weights.size)
        step = max(1, sga._BLOCK_FLOATS // width)
        for start in range(0, len(ids), step):
            idx = ids[start:start + step]  # (sets x size)
            fired = bits[:, idx].transpose(1, 0, 2).astype(np.float32)
            covered = (fired @ self._cover_f[idx]) > 0.5
            modular = np.ascontiguousarray(factors.T[idx]).transpose(0, 2, 1)
            modular = modular @ self.modular_base[idx][:, :, None]
            out[start:start + step] = covered @ self.cell_weights + modular[:, :, 0]
        return out


def random_matroid(rng: np.random.Generator, ground: GroundSet,
                   kind: str = "mixed") -> Matroid:
    """A random uniform or partition matroid over the ground set."""
    n = ground.size
    if kind == "mixed":
        kind = "uniform" if rng.random() < 0.5 else "partition"
    if kind == "uniform":
        return UniformMatroid(ground, int(rng.integers(1, max(n, 2))))
    if kind != "partition":
        raise ValueError(f"unknown matroid kind {kind!r}")
    block_count = int(rng.integers(1, n + 1))
    assignment = rng.integers(0, block_count, n)
    assignment[rng.permutation(n)[:block_count]] = np.arange(block_count)  # no empty block
    blocks = tuple(frozenset(np.flatnonzero(assignment == b).tolist())
                   for b in range(block_count))
    capacities = tuple(int(rng.integers(1, len(b) + 1)) for b in blocks)
    return PartitionMatroid(ground, blocks, capacities)


def random_instance(seed: int, size: int = 6, cells: int = 10,
                    matroid_kind: str = "mixed") -> RandomCoverageObjective:
    """A reproducible random instance with its matroid attached."""
    if size < 1:
        raise ValueError("ground size must be at least 1")
    rng = np.random.default_rng(_u64(seed))
    cover = rng.random((size, cells)) < 0.4
    cell_weights = rng.uniform(0.5, 2.0, cells)
    fire_prob = rng.uniform(0.3, 0.95, size)
    modular_base = rng.uniform(0.05, 0.3, size)
    matroid = random_matroid(rng, GroundSet(size), matroid_kind)
    return RandomCoverageObjective(cover, cell_weights, fire_prob, modular_base,
                                   matroid, seed=seed)
