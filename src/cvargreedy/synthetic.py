"""Seeded random stochastic submodular instances.

Used to exercise the solver and its guarantees on small ground sets where
brute force is tractable. Utility per scenario is weighted coverage by the
elements that fired, plus a small always-positive modular term, so every
singleton has strictly positive value in every scenario (the curvature
ratios stay well defined).
"""
from __future__ import annotations

import numpy as np

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
        subset = self.ground.check_subset(subset)
        if not subset:
            return np.zeros(len(scenarios))
        ids = sorted(subset)
        bits, factors = scenarios.data
        fired = bits[:, ids].astype(np.float32)
        covered = (fired @ self._cover_f[ids]) > 0.5
        cover_value = covered @ self.cell_weights
        modular_value = factors[:, ids] @ self.modular_base[ids]
        return cover_value + modular_value


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
