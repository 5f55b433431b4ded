"""Shared test helpers: tiny deterministic objectives and reference oracles
written independently of the library code paths they check (brute force,
per-scenario utilities, generic curvature)."""
from __future__ import annotations

from itertools import chain, combinations

import numpy as np
import pytest

from cvargreedy import (ENUMERATION_CAP, Curvature, EnumerationCapError,
                        ScenarioSet, StochasticObjective)
from cvargreedy.problems import SensorCoverage, VehicleAssignment
from cvargreedy.synthetic import RandomCoverageObjective


def powerset(elements):
    elements = list(elements)
    return chain.from_iterable(combinations(elements, r)
                               for r in range(len(elements) + 1))


def brute_force_max(fn, matroid):
    """Independent exhaustive maximizer: scan the whole powerset."""
    best_set, best_val = frozenset(), -float("inf")
    for combo in powerset(matroid.ground.elements):
        s = frozenset(combo)
        if not matroid.is_independent(s):
            continue
        v = fn(s)
        if v > best_val:
            best_set, best_val = s, v
    return best_set, best_val


class ModularDeterministic(StochasticObjective):
    """f(S, y) = sum of fixed weights; identical in every scenario."""

    def __init__(self, weights, matroid):
        self.weights = np.asarray(weights, dtype=float)
        self.ground = matroid.ground
        self.matroid = matroid
        self.gamma_hint = float(self.weights.sum())

    def sample_scenarios(self, count, seed):
        if count < 1:
            raise ValueError("sample count must be at least 1")
        return ScenarioSet(np.zeros((count, 1)), count, int(seed))

    def utilities(self, subset, scenarios):
        subset = self.ground.check_subset(subset)
        return np.full(len(scenarios), sum(self.weights[e] for e in subset))


# ------------------------------------------------ per-scenario utilities

def scenario_row(scenarios: ScenarioSet, i: int):
    """Scenario i of a batch: row i of the payload array (or of each array)."""
    if isinstance(scenarios.data, tuple):
        return tuple(d[i] for d in scenarios.data)
    return scenarios.data[i]


def scalar_utility(objective, subset, row) -> float:
    """f(S, y) of one set in one scenario, as a plain loop per problem family."""
    subset = objective.ground.check_subset(subset)
    if isinstance(objective, VehicleAssignment):
        best: dict[int, float] = {}
        for e in subset:
            demand, vehicle = divmod(e, objective.vehicles)
            eff = float(row[demand, vehicle])
            best[demand] = max(best.get(demand, eff), eff)
        return float(sum(best.values()))
    if isinstance(objective, SensorCoverage):
        alive = [objective.coverage_sets[e] for e in subset if row[e]]
        return float(len(set().union(*alive)))
    if isinstance(objective, RandomCoverageObjective):
        bits, factors = row
        covered = np.zeros(objective.cell_weights.size, dtype=bool)
        for e in subset:
            if bits[e]:
                covered |= objective._cover[e]
        modular = sum(objective.modular_base[e] * factors[e] for e in subset)
        return float(objective.cell_weights[covered].sum() + modular)
    raise TypeError(f"no scalar reference for {type(objective).__name__}")


def scalar_utilities(objective, subset, scenarios: ScenarioSet) -> np.ndarray:
    return np.array([scalar_utility(objective, subset, scenario_row(scenarios, i))
                     for i in range(len(scenarios))])


# --------------------------------------------------------- generic curvature

class UndefinedCurvatureError(ValueError):
    """Curvature is undefined when some singleton has zero value."""


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def total_curvature(fn, ground) -> Curvature:
    """1 - min_s [fn(X) - fn(X - s)] / fn({s}) over the full ground set.

    ``fn`` must be normalized monotone submodular with fn({s}) > 0 for every
    element (otherwise the ratio is undefined and an error is raised).
    """
    full = frozenset(ground.elements)
    f_full = fn(full)
    worst = float("inf")
    for e in ground.elements:
        single = fn(frozenset((e,)))
        if single <= 0.0:
            raise UndefinedCurvatureError(
                f"element {e} has nonpositive singleton value {single}; "
                "curvature is undefined")
        worst = min(worst, (f_full - fn(full - {e})) / single)
    return Curvature(_clamp01(1.0 - worst), "total_over_ground_set")


def matroid_curvature(fn, matroid, cap: int = ENUMERATION_CAP) -> Curvature:
    """Exact curvature restricted to the feasible family of the matroid.

    Minimizes [fn(S) - fn(S - s)] / fn({s}) over every independent S and
    s in S. Never larger than ``total_curvature`` when the full ground set
    is feasible. Refuses oversized ground sets; use ``total_curvature`` then.
    """
    try:
        feasible = matroid.enumerate_feasible(cap)
    except EnumerationCapError as err:
        raise EnumerationCapError(
            f"{err}; total_curvature avoids the enumeration entirely") from err
    cache: dict[frozenset, float] = {}

    def value(s: frozenset) -> float:
        if s not in cache:
            cache[s] = float(fn(s))
        return cache[s]

    for e in matroid.ground.elements:
        single = value(frozenset((e,)))
        if single <= 0.0:
            raise UndefinedCurvatureError(
                f"element {e} has nonpositive singleton value {single}; "
                "curvature is undefined")
    worst = float("inf")
    for s in feasible:
        for e in s:
            ratio = (value(s) - value(s - {e})) / value(frozenset((e,)))
            worst = min(worst, ratio)
    if worst == float("inf"):  # single-element grounds still hit the loop; guard anyway
        return Curvature(0.0, "exact_matroid_enumeration")
    return Curvature(_clamp01(1.0 - worst), "exact_matroid_enumeration")


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
