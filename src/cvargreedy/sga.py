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
from itertools import chain

import numpy as np

from .greedy import greedy_sweep
from .matroid import Matroid
from .objective import ScenarioSet, StochasticObjective, child_seed
from .risk import auxiliary_scores, check_risk_level, sorted_rows_cvar_var

# substream id of the fresh evaluation batch in alpha_sweep
_EVAL_STREAM = 1 << 32

# grid count backoff against float noise in gamma/delta near an integer
_GRID_TOL = 1e-9

# largest tau grid a config accepts; a finer grid is a typo, not a workload
MAX_GRID_POINTS = 10**6

# floats in one (sets x samples x taus) temporary of brute force and curvature
# (512 KiB). Narrower tau slices cost time: each slice reruns the reduction's
# inner loop once per sample (2**14 floats took twice as long per set at 1000
# samples x 50 taus); wider blocks only raise the peak RSS.
_BLOCK_FLOATS = 2**16


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
    return _result(config, _solve(objective, matroid, scenarios, points))


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


def _solve(objective: StochasticObjective, matroid: Matroid,
           scenarios: ScenarioSet, points: list[tuple[float, float]]) -> list[SweepPoint]:
    """One ``greedy_sweep`` of H(., tau) over every (alpha, tau) point.

    A point's evaluations add the final recomputation of H(selected)."""
    alphas = np.array([a for a, _ in points], dtype=float)
    taus = np.array([t for _, t in points], dtype=float)

    def score(members: np.ndarray):
        group_taus, group_alphas = taus[members], alphas[members]
        return lambda subset: auxiliary_scores(
            objective.utilities(subset, scenarios), group_taus, group_alphas)

    selected, values, traces = greedy_sweep(score, matroid, len(points))
    return [SweepPoint(tau=tau, selected=selected[i], h_value=float(values[i]),
                       evaluations=traces[i].evaluations + 1)
            for i, (_, tau) in enumerate(points)]


# --------------------------------------------------------------------------
# scoring the feasible family in blocks
# --------------------------------------------------------------------------

def _tau_array(taus) -> np.ndarray:
    """A tau grid as a float array; every point must be finite and nonnegative."""
    arr = np.asarray(list(taus), dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("tau grid points must be finite")
    if np.any(arr < 0):
        raise ValueError("tau grid points must be nonnegative")
    return arr


def _utility_blocks(objective: StochasticObjective, scenarios: ScenarioSet,
                    sets: list[frozenset[int]], width: int):
    """Yield (start, block) where block holds the utilities of sets[start:start + rows].

    One ``utilities`` call per set, no cache. A block has as many rows as
    keep a (rows x samples x width) temporary within _BLOCK_FLOATS floats,
    and at least one. Blocks share one buffer: use each before the next.
    """
    n = len(scenarios)
    rows = max(1, _BLOCK_FLOATS // (n * width))
    buffer = np.empty((min(rows, len(sets)), n))
    for start in range(0, len(sets), rows):
        chunk = sets[start:start + rows]
        block = buffer[:len(chunk)]
        for i, subset in enumerate(chunk):
            block[i] = objective.utilities(subset, scenarios)
        yield start, block


def _tau_slices(count: int, samples: int) -> list[slice]:
    """Split a grid of ``count`` taus so samples x slice stays within _BLOCK_FLOATS.

    No slice holds a lone tau of a longer grid: numpy sums a (samples x 1)
    column pairwise but adds a wider block one sample at a time, so a lone
    column would change the last bits. So every slice holds at least two
    taus, even past the budget, and the last may hold one more than the rest.
    """
    width = count if count == 1 else max(2, _BLOCK_FLOATS // samples)
    starts = list(range(0, count, width))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [count])]


def _shortfall(u: np.ndarray, tau: np.ndarray) -> np.ndarray:
    hinge = tau - u
    return np.maximum(hinge, 0.0, out=hinge)


def _sample_sums(block: np.ndarray, taus: np.ndarray, term) -> np.ndarray:
    """sum over samples of term(u, tau) for every row u of block and every tau.

    Row by row the same bits as ``term(u[:, None], taus[None, :]).sum(axis=0)``
    on a single set. Returns a (rows x taus) array.
    """
    out = np.empty((len(block), taus.size))
    for cols in _tau_slices(taus.size, block.shape[1]):
        out[:, cols] = term(block[:, :, None], taus[cols]).sum(axis=1)
    return out


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
                    scenarios: ScenarioSet, alpha: float, taus) -> BruteForceResult:
    """Exhaustive maximization of the scalarized objective.

    Evaluates every independent set at every tau of the grid, and per set the
    exact cvar (whose maximizing tau needs no grid). Deterministic tie
    handling: smallest tau first, then enumeration order of the sets. Taus
    must be finite and nonnegative.

    The family is scored in blocks of sets, and a long grid in slices of
    taus, so that no temporary exceeds _BLOCK_FLOATS floats (512 KiB) unless
    one set's samples x two taus already do; every result is bit-identical
    to scoring one set at a time with ``empirical_cvar``/``empirical_var``.
    """
    alpha = check_risk_level(alpha)
    taus = _tau_array(taus)
    if taus.size == 0:
        raise ValueError("at least one tau grid point is required")
    feasible = matroid.enumerate_feasible()
    n = len(scenarios)
    best_set = best_cvar_set = frozenset()
    best_tau = cvar_tau = 0.0
    best_h = cvar_star = -float("inf")
    for start, block in _utility_blocks(objective, scenarios, feasible, taus.size):
        h = taus - _sample_sums(block, taus, _shortfall) / (alpha * n)
        cols = h.argmax(axis=1)  # first occurrence: smallest tau
        row_max = h[np.arange(len(block)), cols]
        r = int(row_max.argmax())  # first occurrence: earliest set
        if row_max[r] > best_h:
            best_h = float(row_max[r])
            best_set, best_tau = feasible[start + r], float(taus[cols[r]])
        block.sort(axis=1)
        cvar, var = sorted_rows_cvar_var(block, alpha)
        r = int(cvar.argmax())
        if cvar[r] > cvar_star:
            cvar_star = float(cvar[r])
            best_cvar_set, cvar_tau = feasible[start + r], float(var[r])
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
                        method: str = "total_over_ground_set") -> Curvature:
    """Curvature in the set argument of the scalarized objective, over a tau grid.

    After subtracting its empty-set value, the scalarized objective at
    threshold tau is proportional to G_tau(S) = sum_y min(f(S, y), tau); the
    risk level cancels in every curvature ratio, so one number serves all
    alphas. Returns the worst (largest) curvature over the positive grid
    points. tau = 0 is skipped (G identically zero there); taus must be
    finite and nonnegative. Elements whose utilities are zero in every
    scenario never change any value and are excluded from the ratios.

    The ratios [G(S) - G(S - e)] / G({e}) run over e in S for S the full
    ground set ("total_over_ground_set") or every independent S
    ("exact_matroid_enumeration"). G is computed for each distinct set once,
    in blocks of sets and slices of taus, and the ratios per element in
    chunks, so that no temporary exceeds _BLOCK_FLOATS floats (512 KiB) beyond
    the (sets x taus) matrix of G; the value is bit-identical to computing
    G one set at a time.
    """
    grid = _tau_array(taus)
    if method not in ("total_over_ground_set", "exact_matroid_enumeration"):
        raise ValueError(f"unknown curvature method {method!r}")
    positive = np.array(sorted(set(grid[grid > 0].tolist())))
    if positive.size == 0:
        return Curvature(0.0, method)
    elements = matroid.ground.elements
    singletons = [frozenset((e,)) for e in elements]
    # pairs(e): the rows of g holding every S that contains e, and of S - e
    if method == "total_over_ground_set":
        full = frozenset(elements)
        family = [full] + [full - {e} for e in elements]

        def pairs(e: int) -> tuple[np.ndarray, np.ndarray]:
            return np.array([row[full]]), np.array([row[full - {e}]])
    else:
        family = matroid.enumerate_feasible()
        # family[i] is row i of g; pos maps a set's bitmask to its row
        masks = np.array([sum(1 << e for e in s) for s in family])
        pos = np.full(1 << len(elements), -1)
        pos[masks] = np.arange(len(family))

        def pairs(e: int) -> tuple[np.ndarray, np.ndarray]:
            with_e = np.flatnonzero(masks & (1 << e))
            return with_e, pos[masks[with_e] ^ (1 << e)]
    row: dict[frozenset[int], int] = {}
    for subset in chain(family, singletons):
        row.setdefault(subset, len(row))
    g = np.empty((len(row), positive.size))
    for start, block in _utility_blocks(objective, scenarios, list(row), positive.size):
        g[start:start + len(block)] = _sample_sums(block, positive, np.minimum)

    step = max(1, _BLOCK_FLOATS // positive.size)
    worst_ratio = np.full(positive.size, np.inf)
    for e in elements:
        single = g[row[singletons[e]]]
        if not np.any(single > 0.0):
            continue  # empirically worthless element
        top, rest = pairs(e)
        for lo in range(0, top.size, step):
            ratio = (g[top[lo:lo + step]] - g[rest[lo:lo + step]]) / single
            np.minimum(worst_ratio, ratio.min(axis=0), out=worst_ratio)
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
                config: SgaConfig, alphas,
                eval_samples: int | None = None) -> AlphaSweepTable:
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
    curvature = auxiliary_curvature(objective, matroid, scenarios, taus)
    if eval_samples is None:
        eval_samples = config.samples
    fresh = objective.sample_scenarios(eval_samples,
                                       child_seed(config.seed, _EVAL_STREAM))
    sweep = _solve(objective, matroid, scenarios,
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
