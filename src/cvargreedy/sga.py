"""Sequential greedy maximization of empirical CVaR over a matroid.

The solver discretizes the threshold tau on a uniform grid over [0, gamma],
greedily maximizes the scalarized objective at each grid point, and returns
the best (set, tau) pair. With a curvature estimate of the scalarized
objective it also reports a certified lower bound relative to the exact
optimum: the multiplicative factor 1/(1+k), a grid penalty delta/(1+k) and
an additive penalty (k/(1+k)) * gamma * (1/alpha - 1) that vanishes in the
risk-neutral case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .matroid import ENUMERATION_CAP, Matroid
from .objective import ScenarioSet, StochasticObjective, child_seed
from .risk import check_risk_level, empirical_cvar, empirical_var

# substream id of the fresh evaluation batch in alpha_sweep
_EVAL_STREAM = 1 << 32

# grid count backoff against float noise in gamma/delta near an integer
_GRID_TOL = 1e-9

# largest tau grid a config accepts; a finer grid is a typo, not a workload
MAX_GRID_POINTS = 10**6

# floats in one hinge temporary of the batched sweep (2 MiB)
_HINGE_FLOATS = 2**18


@dataclass(frozen=True)
class SgaConfig:
    """Solver parameters. ``samples`` is the scenario batch size per evaluation."""

    alpha: float
    gamma: float
    delta: float
    samples: int
    seed: int = 0

    def __post_init__(self) -> None:
        check_risk_level(self.alpha)
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0 < self.delta <= self.gamma:
            raise ValueError(
                f"delta must lie in (0, gamma={self.gamma}], got {self.delta}")
        if int(self.samples) < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        steps = self.gamma / self.delta - _GRID_TOL
        if steps > MAX_GRID_POINTS - 1:
            count = math.ceil(steps) + 1 if math.isfinite(steps) else steps
            raise ValueError(
                f"gamma={self.gamma} and delta={self.delta} give a tau grid of "
                f"{count} points, more than the limit of {MAX_GRID_POINTS}")

    def tau_grid(self) -> list[float]:
        """0, delta, 2*delta, ... up to ceil(gamma/delta) steps.

        The top point may exceed gamma slightly when delta does not divide it.
        """
        count = math.ceil(self.gamma / self.delta - _GRID_TOL)
        return [i * self.delta for i in range(count + 1)]


@dataclass(frozen=True)
class SweepPoint:
    """Outcome of the greedy run at one tau grid point."""

    tau: float
    selected: frozenset[int]
    h_value: float
    evaluations: int  # scalarized-objective calls spent on this grid point


@dataclass(frozen=True)
class SgaResult:
    chosen_set: frozenset[int]
    chosen_tau: float
    h_value: float
    sweep: tuple[SweepPoint, ...]
    oracle_evaluations: int  # scalarized calls x scenario batch size
    config: SgaConfig


def run_sga(objective: StochasticObjective, matroid: Matroid, config: SgaConfig,
            scenarios: ScenarioSet | None = None) -> SgaResult:
    """Sweep the tau grid, greedily solving each scalarized problem.

    Every evaluation uses one common-random-numbers scenario batch: the one
    passed in via ``scenarios``, or else one drawn from ``config.seed``.
    Ties in the final argmax go to the smallest tau.
    """
    if scenarios is None:
        scenarios = objective.sample_scenarios(config.samples, config.seed)
    elif len(scenarios) != config.samples:
        raise ValueError(
            f"scenario batch size {len(scenarios)} does not match "
            f"config.samples={config.samples}")
    points = [(config.alpha, tau) for tau in config.tau_grid()]
    return _result(config, _greedy_sweep(objective, matroid, scenarios, points))


def _result(config: SgaConfig, sweep: list[SweepPoint]) -> SgaResult:
    """The best grid point of one alpha's sweep; the first maximum over tau wins."""
    best = max(sweep, key=lambda p: p.h_value)
    return SgaResult(
        chosen_set=best.selected,
        chosen_tau=best.tau,
        h_value=best.h_value,
        sweep=tuple(sweep),
        oracle_evaluations=sum(p.evaluations for p in sweep) * config.samples,
        config=config,
    )


def _scores(u: np.ndarray, taus: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """H(S, tau) at every (alpha, tau) pair from one utility vector u of S.

    Bit-identical to ``auxiliary_from_values`` per pair: each row sum is the
    same pairwise sum as the 1-d np.sum. Rows are scored in chunks so that
    one hinge temporary holds at most _HINGE_FLOATS floats.
    """
    n = u.size
    out = np.empty(taus.size)
    step = max(1, _HINGE_FLOATS // n)
    for lo in range(0, taus.size, step):
        t = taus[lo:lo + step]
        hinge = t[:, None] - u[None, :]
        np.maximum(hinge, 0.0, out=hinge)
        out[lo:lo + step] = t - hinge.sum(axis=1) / (alphas[lo:lo + step] * n)
    return out


def _greedy_sweep(objective: StochasticObjective, matroid: Matroid,
                  scenarios: ScenarioSet,
                  points: list[tuple[float, float]]) -> list[SweepPoint]:
    """Greedy maximization of H(., tau) at every (alpha, tau) point at once.

    Each step groups the unfinished points by their current set S, asks the
    matroid for the extensions of S once per group, and computes the utility
    vector of each S + e once for the whole group. Per point this makes the
    same picks as ``greedy_maximize`` over ``auxiliary_value`` (ties go to
    the smallest element id) and reports the same H values and the same
    logical evaluation count: the empty set, every candidate, and the final
    recomputation of H(selected).
    """
    alphas = np.array([a for a, _ in points], dtype=float)
    taus = np.array([t for _, t in points], dtype=float)
    selected = [frozenset()] * len(points)
    values = _scores(objective.utilities(frozenset(), scenarios), taus, alphas)
    evaluations = [2] * len(points)
    active = list(range(len(points)))
    while active:
        groups: dict[frozenset, list[int]] = {}
        for i in active:
            groups.setdefault(selected[i], []).append(i)
        active = []
        for current, members in groups.items():
            candidates = matroid.extension_candidates(current)
            if not candidates:
                continue
            group_taus, group_alphas = taus[members], alphas[members]
            best_value = np.full(len(members), -np.inf)
            best_element = np.full(len(members), -1)
            for e in sorted(candidates):
                score = _scores(objective.utilities(current | {e}, scenarios),
                                group_taus, group_alphas)
                better = score > best_value
                best_value[better] = score[better]
                best_element[better] = e
            for j, i in enumerate(members):
                selected[i] = current | {int(best_element[j])}
                values[i] = best_value[j]
                evaluations[i] += len(candidates)
            active.extend(members)
    return [SweepPoint(tau=tau, selected=selected[i], h_value=float(values[i]),
                       evaluations=evaluations[i])
            for i, (_, tau) in enumerate(points)]


# --------------------------------------------------------------------------
# exact reference optimum
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BruteForceResult:
    """Exact optima over the feasible family: on the tau grid and grid-free."""

    best_set: frozenset[int]
    best_tau: float
    h_star: float          # max over feasible sets x tau grid
    cvar_best_set: frozenset[int]
    cvar_tau: float        # empirical var of the cvar-optimal set
    cvar_star: float       # max per-set empirical cvar (grid-free optimum)


def brute_force_opt(objective: StochasticObjective, matroid: Matroid,
                    scenarios: ScenarioSet, alpha: float, taus,
                    cap: int = ENUMERATION_CAP) -> BruteForceResult:
    """Exhaustive maximization of the scalarized objective.

    Evaluates every independent set at every tau of the grid, and per set the
    exact cvar (whose maximizing tau needs no grid). Deterministic tie
    handling: smallest tau first, then enumeration order of the sets.
    """
    alpha = check_risk_level(alpha)
    taus = np.asarray(list(taus), dtype=float)
    if taus.size == 0:
        raise ValueError("at least one tau grid point is required")
    if np.any(taus < 0):
        raise ValueError("tau grid points must be nonnegative")
    feasible = matroid.enumerate_feasible(cap)
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
        cv = empirical_cvar(u, alpha)
        if cv > cvar_star:
            cvar_star = cv
            best_cvar_set, cvar_tau = subset, empirical_var(u, alpha)
    return BruteForceResult(best_set=best_set, best_tau=best_tau, h_star=best_h,
                            cvar_best_set=best_cvar_set, cvar_tau=cvar_tau,
                            cvar_star=cvar_star)


# --------------------------------------------------------------------------
# curvature of the scalarized objective
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Curvature:
    """Curvature in [0, 1]: 0 for modular functions, 1 for a fully redundant element."""

    value: float
    method: str  # "total_over_ground_set" or "exact_matroid_enumeration"


def auxiliary_curvature(objective: StochasticObjective, matroid: Matroid,
                        scenarios: ScenarioSet, taus,
                        method: str = "total_over_ground_set",
                        cap: int = ENUMERATION_CAP) -> Curvature:
    """Curvature in the set argument of the scalarized objective, over a tau grid.

    After subtracting its empty-set value, the scalarized objective at
    threshold tau is proportional to G_tau(S) = sum_y min(f(S, y), tau); the
    risk level cancels in every curvature ratio, so one number serves all
    alphas. Returns the worst (largest) curvature over the positive grid
    points. tau = 0 is skipped (G identically zero there). Elements whose
    utilities are zero in every scenario never change any value and are
    excluded from the ratios.
    """
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
    elif method == "exact_matroid_enumeration":
        feasible = matroid.enumerate_feasible(cap)
        pairs = [(s, e) for s in feasible if s for e in s]
        family = feasible
    else:
        raise ValueError(f"unknown curvature method {method!r}")

    needed = set(family) | set(singletons)
    needed.update(s - {e} for s, e in pairs)
    g_of: dict[frozenset, np.ndarray] = {}
    zero_elements = set()
    for subset in needed:
        u = objective.utilities(subset, scenarios)
        g_of[subset] = np.minimum(u[:, None], taus_arr[None, :]).sum(axis=0)
    for e in ground.elements:
        if not np.any(g_of[singletons[e]] > 0.0):
            zero_elements.add(e)
    worst_ratio = np.full(taus_arr.size, np.inf)
    for subset, e in pairs:
        if e in zero_elements:
            continue
        ratio = (g_of[subset] - g_of[subset - {e}]) / g_of[singletons[e]]
        worst_ratio = np.minimum(worst_ratio, ratio)
    if not np.any(np.isfinite(worst_ratio)):
        return Curvature(0.0, method)  # every element is empirically worthless
    k = float(np.max(np.clip(1.0 - worst_ratio, 0.0, 1.0)))
    return Curvature(k, method)


# --------------------------------------------------------------------------
# approximation guarantee
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Pieces of the certified lower bound for a solver run.

    certified_lower_bound = (reference_optimum - delta) * multiplicative - additive
    where multiplicative = 1/(1+k), the delta term is the grid penalty
    delta/(1+k), and additive = (k/(1+k)) * gamma * (1/alpha - 1).
    """

    curvature: float
    curvature_method: str
    multiplicative: float
    delta_term: float
    additive: float
    reference_optimum: float | None = None
    certified_lower_bound: float | None = None


def additive_penalty(curvature: float, gamma: float, alpha: float) -> float:
    """The curvature-driven additive error term; zero in the risk-neutral case."""
    check_risk_level(alpha)
    k = float(curvature)
    return (k / (1.0 + k)) * gamma * (1.0 / alpha - 1.0)


def approximation_bound(curvature: Curvature | float, config: SgaConfig,
                        h_star: float | None = None) -> BoundReport:
    """Assemble the guarantee report, optionally anchored at a known optimum."""
    if isinstance(curvature, Curvature):
        k, method = curvature.value, curvature.method
    else:
        k, method = float(curvature), "supplied"
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"curvature must lie in [0, 1], got {k}")
    multiplicative = 1.0 / (1.0 + k)
    additive = additive_penalty(k, config.gamma, config.alpha)
    certified = None
    if h_star is not None:
        certified = (float(h_star) - config.delta) * multiplicative - additive
    return BoundReport(curvature=k, curvature_method=method,
                       multiplicative=multiplicative,
                       delta_term=config.delta * multiplicative,
                       additive=additive,
                       reference_optimum=h_star,
                       certified_lower_bound=certified)


# --------------------------------------------------------------------------
# risk level sweeps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaSweepPoint:
    alpha: float
    result: SgaResult
    utilities: np.ndarray   # chosen set evaluated on fresh scenarios
    utility_mean: float
    utility_std: float
    additive_error: float


@dataclass(frozen=True)
class AlphaSweepTable:
    points: tuple[AlphaSweepPoint, ...]
    curvature: Curvature


def alpha_sweep(objective: StochasticObjective, matroid: Matroid,
                config: SgaConfig, alphas, eval_samples: int | None = None,
                curvature_method: str = "total_over_ground_set") -> AlphaSweepTable:
    """Solve every risk level in one sweep under common random numbers.

    All risk levels share one scenario batch (config.seed), so results across
    alphas differ only through the risk level, and each utility vector is
    computed once for all of them. Each point's result equals ``run_sga`` at
    its alpha. Each chosen set is then evaluated on a fresh child-seeded
    batch of ``eval_samples`` (default ``config.samples``) for the utility
    histogram statistics. The curvature of the scalarized objective is
    alpha-independent and computed once.
    """
    alphas = [check_risk_level(a) for a in alphas]
    if not alphas:
        raise ValueError("at least one risk level is required")
    scenarios = objective.sample_scenarios(config.samples, config.seed)
    taus = config.tau_grid()
    curvature = auxiliary_curvature(objective, matroid, scenarios, taus,
                                    method=curvature_method)
    if eval_samples is None:
        eval_samples = config.samples
    fresh = objective.sample_scenarios(eval_samples,
                                       child_seed(config.seed, _EVAL_STREAM))
    sweep = _greedy_sweep(objective, matroid, scenarios,
                          [(alpha, tau) for alpha in alphas for tau in taus])
    points = []
    for i, alpha in enumerate(alphas):
        result = _result(replace(config, alpha=alpha),
                         sweep[i * len(taus):(i + 1) * len(taus)])
        utils = objective.utilities(result.chosen_set, fresh)
        points.append(AlphaSweepPoint(
            alpha=alpha,
            result=result,
            utilities=utils,
            utility_mean=float(np.mean(utils)),
            utility_std=float(np.std(utils)),
            additive_error=additive_penalty(curvature.value, config.gamma, alpha),
        ))
    return AlphaSweepTable(points=tuple(points), curvature=curvature)
