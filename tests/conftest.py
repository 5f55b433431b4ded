"""Shared test helpers: tiny deterministic objectives and reference oracles
written independently of the library code paths they check (brute force,
per-segment visibility, per-scenario utilities, per-sample sensor coverage,
the plain greedy and estimators, the extension rule and the greedy on one
set function, generic curvature, the per-tau solver sweep, the exactly
scored batched sweep, the per-set brute-force optimum and scalarized
curvature)."""
from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Callable

import numpy as np
import pytest

from cvargreedy import (BruteForceResult, Curvature, EnumerationCapError, GreedyTrace,
                        ScenarioSet, SgaResult, StochasticObjective, SweepPoint)
from cvargreedy.greedy import greedy_sweep
from cvargreedy.matroid import _mask_ids
from cvargreedy.problems import _GEOM_EPS, SensorCoverage, VehicleAssignment
from cvargreedy.risk import _cvar_var, auxiliary_scores
from cvargreedy.synthetic import RandomCoverageObjective


def powerset(elements):
    elements = list(elements)
    return chain.from_iterable(combinations(elements, r)
                               for r in range(len(elements) + 1))


def enumerate_feasible(matroid) -> list[frozenset[int]]:
    """The matroid's ``feasible_masks`` as frozensets, empty set first."""
    return [frozenset(row) for ids in _mask_ids(matroid.feasible_masks(), matroid.ground.size)
            for row in ids.tolist()]


def empirical_var(sample, alpha: float) -> float:
    """Left endpoint of the alpha-quantile of the sample, the estimator's VaR."""
    return _cvar_var(sample, alpha)[1]


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


def random_sensor(seed, sites, cells, select=None) -> SensorCoverage:
    """A sensor instance on explicit random coverage sets over ``cells`` free
    cells, without a grid. Sets may be empty or cover every cell (such a
    sensor always fails)."""
    rng = np.random.default_rng(seed)
    cover = rng.random((sites, cells)) < rng.uniform(0.05, 0.6)
    sets = [np.flatnonzero(row).tolist() for row in cover]
    return SensorCoverage(sets, cells, select or sites, seed=seed)


def with_failed_rows(scenarios: ScenarioSet, rows) -> ScenarioSet:
    """The batch with every sensor failed in the given scenario rows."""
    bits = scenarios.data.copy()
    bits[rows] = 0
    return ScenarioSet(bits, scenarios.size, scenarios.seed)


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


def reference_sensor_utilities(objective: SensorCoverage, subset,
                               scenarios: ScenarioSet) -> np.ndarray:
    """Sensor utilities of one set from a (samples x cells) coverage matrix.

    One matmul over every sample, not over the distinct failure patterns:
    the kernel that ``utilities`` and ``extension_utilities`` must match bit
    for bit."""
    ids = sorted(objective.ground.check_subset(subset))
    covered = scenarios.data[:, ids].astype(np.float32) @ objective._cover_f[ids]
    return np.minimum(covered, 1.0).sum(axis=1).astype(float)


def reference_coverage_utilities(objective: RandomCoverageObjective, subset,
                                 scenarios: ScenarioSet) -> np.ndarray:
    """Random coverage utilities of one set, one matrix-vector product per term.

    The single-set kernel that the batched ``set_utilities`` must match bit
    for bit (``utilities`` itself reads through ``set_utilities``)."""
    subset = objective.ground.check_subset(subset)
    if not subset:
        return np.zeros(len(scenarios))
    ids = sorted(subset)
    bits, factors = scenarios.data
    fired = bits[:, ids].astype(np.float32)
    covered = (fired @ objective._cover_f[ids]) > 0.5
    cover_value = covered @ objective.cell_weights
    modular_value = factors[:, ids] @ objective.modular_base[ids]
    return cover_value + modular_value


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


class ShiftedRows(StochasticObjective):
    """Modular utility whose per-element rows are cyclic shifts of one vector.

    Element e is worth v[(i + e) % n] in scenario i, for v the batch's draws,
    so the rows of sets with the same shifts up to a rotation are
    permutations of one another: equal multisets whose hinge sums differ
    only in rounding. Set sums run in ascending id order.
    """

    def __init__(self, matroid, scale: float = 1.0):
        self.ground = matroid.ground
        self.matroid = matroid
        self.scale = float(scale)
        self.gamma_hint = self.scale * self.ground.size

    def sample_scenarios(self, count, seed):
        rng = np.random.default_rng(seed)
        return ScenarioSet(self.scale * rng.random(count), count, int(seed))

    def utilities(self, subset, scenarios):
        subset = self.ground.check_subset(subset)
        v = scenarios.data
        shift = np.arange(v.size)
        total = np.zeros(v.size)
        for e in sorted(subset):
            total += v[(shift + e) % v.size]
        return total


class Offset(StochasticObjective):
    """base(S) + offset for nonempty S: large utilities with small differences.

    Adding a constant to every nonempty set keeps the utility normalized,
    monotone and submodular."""

    def __init__(self, base, offset: float):
        self.base = base
        self.offset = float(offset)
        self.ground = base.ground
        self.matroid = base.matroid
        self.gamma_hint = base.gamma_hint + self.offset

    def sample_scenarios(self, count, seed):
        return self.base.sample_scenarios(count, seed)

    def utilities(self, subset, scenarios):
        u = self.base.utilities(subset, scenarios)
        return u + self.offset if subset else u


# ------------------------------------------------------------ visibility

def segment_blocked(p0: np.ndarray, p1: np.ndarray, obstacle_rc: np.ndarray) -> bool:
    """True when the open segment p0->p1 crosses some obstacle cell interior.

    Slab clipping against each obstacle square [r, r+1] x [c, c+1], one
    segment at a time. Grazing a cell corner or sliding along an edge has
    zero interior overlap and does not block.
    """
    if obstacle_rc.size == 0:
        return False
    d = p1 - p0
    if d[0] == 0.0 and d[1] == 0.0:
        return False
    m = obstacle_rc.shape[0]
    t_lo = np.zeros(m)
    t_hi = np.ones(m)
    for axis in (0, 1):
        o = obstacle_rc[:, axis]
        p = p0[axis]
        dd = d[axis]
        if dd == 0.0:
            inside = (o + _GEOM_EPS < p) & (p < o + 1.0 - _GEOM_EPS)
            t_hi = np.where(inside, t_hi, -np.inf)
        else:
            t1 = (o - p) / dd
            t2 = (o + 1.0 - p) / dd
            t_lo = np.maximum(t_lo, np.minimum(t1, t2))
            t_hi = np.minimum(t_hi, np.maximum(t1, t2))
    return bool(np.any(t_hi - t_lo > _GEOM_EPS))


def reference_visible_cells(grid, origin: int) -> list[int]:
    """``visible_cells`` with one ``segment_blocked`` call per target cell."""
    obstacle_rc = np.array([grid.cell_rc(c) for c in sorted(grid.obstacles)],
                           dtype=float).reshape(-1, 2)
    o_rc = np.array(grid.cell_rc(origin), dtype=float) + 0.5
    return [target for target in grid.free_cells()
            if not segment_blocked(o_rc, np.array(grid.cell_rc(target), dtype=float) + 0.5,
                                   obstacle_rc)]


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


def extension_candidates(matroid, subset) -> frozenset[int]:
    """The elements outside the independent ``subset`` whose block is below
    capacity, by the block rule; a dependent subset raises ``ValueError``."""
    s = matroid.ground.check_subset(subset)
    if not matroid.is_independent(s):
        raise ValueError("extension candidates are defined for independent sets only")
    used = [len(b & s) for b in matroid.blocks]
    return frozenset().union(*(b for b, u, c in zip(matroid.blocks, used, matroid.capacities)
                               if u < c)) - s


SetFunction = Callable[[frozenset], float]


def greedy_maximize(objective_fn: SetFunction, matroid) -> tuple[frozenset[int], GreedyTrace]:
    """``greedy_sweep`` of one set function: its set and trace. Ties go to
    the smallest element id; every call to ``objective_fn`` is counted."""
    def score(groups):
        return [np.array([[objective_fn(current | {e})] for e in candidates], dtype=float)
                for _, current, candidates, _ in groups]

    selected, _, traces = greedy_sweep(score, matroid, [objective_fn(frozenset())])
    return selected[0], traces[0]


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


def reference_solve(objective, matroid, scenarios, points) -> list[SweepPoint]:
    """``sga._solve`` with every candidate row scored by ``auxiliary_scores``.

    The batched sweep as it was before groups were screened or scored a step
    at a time: one ``greedy_sweep`` over all (alpha, tau) points, one
    ``extension_utilities`` call per group, H of each row at every member tau."""
    alphas = np.array([a for a, _ in points], dtype=float)
    taus = np.array([t for _, t in points], dtype=float)

    def score(groups):
        out = []
        for members, current, candidates, _ in groups:
            rows = objective.extension_utilities([(current, candidates)], scenarios)
            out.append(np.array([auxiliary_scores(u, taus[members], alphas[members])
                                 for u in rows]))
        return out

    initial = auxiliary_scores(objective.utilities(frozenset(), scenarios), taus, alphas)
    selected, values, traces = greedy_sweep(score, matroid, initial)
    return [SweepPoint(tau=tau, selected=selected[i], h_value=float(values[i]),
                       evaluations=traces[i].evaluations + 1)
            for i, (_, tau) in enumerate(points)]


# ------------------------------------ per-set brute force and curvature

def reference_brute_force_opt(objective, matroid, scenarios, alpha, taus) -> BruteForceResult:
    """``brute_force_opt`` scoring one feasible set at a time."""
    taus = np.asarray(list(taus), dtype=float)
    feasible = enumerate_feasible(matroid)
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
        feasible = enumerate_feasible(matroid)
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


def matroid_curvature(fn, matroid) -> Curvature:
    """Exact curvature restricted to the feasible family of the matroid.

    Minimizes [fn(S) - fn(S - s)] / fn({s}) over every independent S and
    s in S. Never larger than ``total_curvature`` when the full ground set
    is feasible. Refuses oversized ground sets; use ``total_curvature`` then.
    """
    try:
        feasible = enumerate_feasible(matroid)
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
