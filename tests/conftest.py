"""Shared test helpers: tiny deterministic objectives and reference oracles
written independently of the library code paths they check (brute force,
per-scenario utilities, the plain greedy and estimators, generic curvature,
the per-tau solver sweep, the per-set brute-force optimum and scalarized
curvature)."""
from __future__ import annotations

import math
from itertools import chain, combinations

import numpy as np
import pytest

from cvargreedy import (ENUMERATION_CAP, BruteForceResult, Curvature,
                        EnumerationCapError, ScenarioSet, SgaResult,
                        StochasticObjective, SweepPoint)
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


class ClonedObjective(StochasticObjective):
    """Element e acts as element e mod n of ``base``: f(S) = base(S mod n).

    Clones have identical utilities in every scenario, so the greedy meets
    exact ties; the composition stays normalized, monotone and submodular.
    """

    def __init__(self, base, matroid):
        self.base = base
        self.ground = matroid.ground
        self.matroid = matroid
        self.gamma_hint = base.gamma_hint

    def sample_scenarios(self, count, seed):
        return self.base.sample_scenarios(count, seed)

    def utilities(self, subset, scenarios):
        subset = self.ground.check_subset(subset)
        n = self.base.ground.size
        return self.base.utilities({e % n for e in subset}, scenarios)


# ------------------------------------------------ plain greedy and estimators

def plain_greedy(fn, matroid):
    """One scalar greedy loop: (selected, [(pick, gain)], evaluations).

    Candidates are the elements outside S whose addition stays independent;
    ties go to the smallest id; every call to ``fn`` is counted.
    """
    selected = frozenset()
    current = fn(selected)
    picks, evaluations = [], 1
    while True:
        candidates = [e for e in matroid.ground.elements
                      if e not in selected and matroid.is_independent(selected | {e})]
        if not candidates:
            return selected, picks, evaluations
        best_element, best_value = -1, -float("inf")
        for e in candidates:
            value = fn(selected | {e})
            evaluations += 1
            if value > best_value:
                best_element, best_value = e, value
        picks.append((best_element, best_value - current))
        selected = selected | {best_element}
        current = best_value


def plain_h(values, tau, alpha):
    """tau - sum(max(tau - v, 0)) / (alpha * n) of a 1-d sample."""
    values = np.asarray(values, dtype=float)
    hinge = np.maximum(tau - values, 0.0)
    return float(tau - np.sum(hinge) / (alpha * values.size))


def plain_cvar_var(values, alpha):
    """(cvar, var) of a 1-d sample: sort, k = ceil(alpha * n), shifted tail sum."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    k = min(max(math.ceil(alpha * n - 1e-9), 1), n)
    return float(v[k - 1] + np.sum(v[:k - 1] - v[k - 1]) / (alpha * n)), float(v[k - 1])


# ------------------------------------------------------ per-tau solver sweep

def reference_run_sga(objective, matroid, config, scenarios=None) -> SgaResult:
    """The solver as one plain greedy over the plain H per tau."""
    if scenarios is None:
        scenarios = objective.sample_scenarios(config.samples, config.seed)
    points = []
    for tau in config.tau_grid():
        def h(subset, tau=tau):
            return plain_h(objective.utilities(subset, scenarios), tau, config.alpha)

        selected, _, evaluations = plain_greedy(h, matroid)
        points.append(SweepPoint(tau=tau, selected=selected, h_value=h(selected),
                                 evaluations=evaluations + 1))
    best = points[0]
    for p in points[1:]:
        if p.h_value > best.h_value:
            best = p
    return SgaResult(chosen_set=best.selected, chosen_tau=best.tau,
                     h_value=best.h_value, sweep=tuple(points),
                     oracle_evaluations=sum(p.evaluations for p in points)
                     * config.samples,
                     config=config)


# ------------------------------------ per-set brute force and curvature

def reference_brute_force_opt(objective, matroid, scenarios, alpha, taus) -> BruteForceResult:
    """``brute_force_opt`` scoring one feasible set at a time."""
    taus = np.asarray(list(taus), dtype=float)
    feasible = matroid.enumerate_feasible()
    n = len(scenarios)
    best_set = best_cvar_set = frozenset()
    best_tau = cvar_tau = 0.0
    best_h = cvar_star = -float("inf")
    for subset in feasible:
        u = objective.utilities(subset, scenarios)
        hinge = np.maximum(taus[None, :] - u[:, None], 0.0).sum(axis=0)
        h_row = taus - hinge / (alpha * n)
        j = int(np.argmax(h_row))  # first occurrence: smallest tau
        if h_row[j] > best_h:
            best_h = float(h_row[j])
            best_set, best_tau = subset, float(taus[j])
        cv, var = plain_cvar_var(u, alpha)
        if cv > cvar_star:
            cvar_star = cv
            best_cvar_set, cvar_tau = subset, var
    return BruteForceResult(best_set=best_set, best_tau=best_tau, h_star=best_h,
                            cvar_best_set=best_cvar_set, cvar_tau=cvar_tau,
                            cvar_star=cvar_star)


def reference_auxiliary_curvature(objective, matroid, scenarios, taus,
                                  method="total_over_ground_set") -> Curvature:
    """``auxiliary_curvature`` with one G vector per set and one ratio per (S, e)."""
    positive = sorted({float(t) for t in taus if t > 0})
    if not positive:
        return Curvature(0.0, method)
    taus_arr = np.asarray(positive)
    ground = matroid.ground
    full = frozenset(ground.elements)
    singletons = [frozenset((e,)) for e in ground.elements]
    if method == "total_over_ground_set":
        pairs = [(full, e) for e in ground.elements]
        family = [full] + [full - {e} for e in ground.elements]
    else:
        feasible = matroid.enumerate_feasible()
        pairs = [(s, e) for s in feasible if s for e in s]
        family = feasible
    needed = set(family) | set(singletons)
    needed.update(s - {e} for s, e in pairs)
    g_of = {}
    for subset in needed:
        u = objective.utilities(subset, scenarios)
        g_of[subset] = np.minimum(u[:, None], taus_arr[None, :]).sum(axis=0)
    zero_elements = {e for e in ground.elements
                     if not np.any(g_of[singletons[e]] > 0.0)}
    worst_ratio = np.full(taus_arr.size, np.inf)
    for subset, e in pairs:
        if e in zero_elements:
            continue
        ratio = (g_of[subset] - g_of[subset - {e}]) / g_of[singletons[e]]
        worst_ratio = np.minimum(worst_ratio, ratio)
    if not np.any(np.isfinite(worst_ratio)):
        return Curvature(0.0, method)
    k = float(np.max(np.clip(1.0 - worst_ratio, 0.0, 1.0)))
    return Curvature(k, method)


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
