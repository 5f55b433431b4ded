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

import itertools
import logging
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .greedy import greedy_sweep
from .matroid import Matroid, _integer, _mask_ids
from .objective import ScenarioSet, StochasticObjective, child_seed
from .risk import (_tail_index, auxiliary_scores, check_risk_level,
                   sorted_rows_cvar_var)

log = logging.getLogger("cvargreedy")

# substream id of the fresh evaluation batch in alpha_sweep
_EVAL_STREAM = 1 << 32

# grid count backoff against float noise in gamma/delta near an integer
_GRID_TOL = 1e-9

# largest tau grid a config accepts; a finer grid is a typo, not a workload
MAX_GRID_POINTS = 10**6

# floats in each buffer of brute force and curvature (512 KiB): a block's
# utilities, its (sets x taus) rows and the temporary of _sample_sums.
# Narrower tau slices cost time (2**14 floats took twice as long per set at
# 1000 samples x 50 taus); wider buffers only raise the peak RSS.
_BLOCK_FLOATS = 2**16

# floats in one (candidates x samples) temporary of a greedy group's scoring
# (128 KiB): the screen's sorted rows and prefix sums, the exact kernel's
# pair rows, and the vehicle extension kernel's columns; also each (targets
# x obstacles) array of the sensor visibility pass. The group's utilities
# are held whole anyway; larger chunks only raise the peak RSS.
_GROUP_FLOATS = 2**14

# (member taus x samples) from which a greedy group is screened before it is
# scored (see _screen); smaller groups are scored exactly
_SCREEN_MIN_FLOATS = 10_000

# (candidates x samples) from which a greedy group of an objective that
# declares its utility rounding skips candidates by their stale gains (see
# _solve); 66 candidates at 1000 samples. Below it the second kernel call of
# a group costs more than the rows it skips: ungated, the benchmark sensor
# sweep (30 candidates) ran about 30% slower.
_LAZY_MIN_FLOATS = 2**16


@dataclass(frozen=True)
class SgaConfig:
    """Solver parameters. ``samples`` is the scenario batch size per evaluation."""

    alpha: float
    gamma: float
    delta: float
    samples: int
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma", "delta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            object.__setattr__(self, name, float(value))
        check_risk_level(self.alpha)
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0 < self.delta <= self.gamma:
            raise ValueError(
                f"delta must lie in (0, gamma={self.gamma}], got {self.delta}")
        object.__setattr__(self, "samples", _integer(self.samples, "samples"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if self.samples < 1:
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
    _check_ground(objective, matroid)
    if scenarios is None:
        scenarios = objective.sample_scenarios(config.samples, config.seed)
    elif len(scenarios) != config.samples:
        raise ValueError(
            f"scenario batch size {len(scenarios)} does not match "
            f"config.samples={config.samples}")
    points = [(config.alpha, tau) for tau in config.tau_grid()]
    return _result(config, _solve(objective, matroid, scenarios, points))


def _check_ground(objective: StochasticObjective, matroid: Matroid) -> None:
    """The solver scores the matroid's sets: their ids must be the objective's."""
    if matroid.ground.size != objective.ground.size:
        raise ValueError(f"the matroid's ground set has {matroid.ground.size} elements, "
                         f"the objective's {objective.ground.size}")


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

    Each score call of the sweep (one per step, and one more for the groups
    its rules leave unscored) takes the groups' utilities from
    ``extension_utilities``: one call per run of whole groups whose rows fit
    _BLOCK_FLOATS floats, so a larger group is a call of its own. The rows
    of each call are scored with one ``_batch_scores`` call, whose tables
    give the greedy the picks and values of the exact H table and upper
    ends of every other value. The empty set's one row is scored at every
    point by the exact kernel, outside the counts below. A point's
    evaluations add the final recomputation of H(selected). H(S, tau) <=
    tau, so ``greedy_sweep`` settles a group whose points all sit at their
    tau from its first candidate, computing one row. If the objective
    declares its ``utility_rounding``, a group of at least _LAZY_MIN_FLOATS
    (candidates x samples) floats also skips the candidates whose stale
    gains rule them out, with the margins of ``_stale_margins``. The score
    calls, ``_batch_scores`` and ``greedy_sweep`` add their work to one
    ``counts`` dict, and one DEBUG record of the ``cvargreedy`` logger gives
    it: the pairs scored, those scored exactly and those skipped (every
    candidate of every step at every point is one of the two), the group
    scores below the screen's size rule, the candidate rows computed, the
    ``extension_utilities`` calls that computed them and the rows skipped
    by stale bounds, and the picks settled by their group's first call, one
    per point and step. The ids are not checked here: the sets come from
    the matroid, and each hook call validates its subsets (the default
    hook all its ids, once)."""
    alphas = np.array([a for a, _ in points], dtype=float)
    taus = np.array([t for _, t in points], dtype=float)
    n = len(scenarios)
    rho = objective.utility_rounding
    margins = None if rho is None else _stale_margins(taus, alphas, n, rho)
    # the work counts, in the order of the DEBUG record
    counts = dict.fromkeys("pairs exact skipped small rows calls stale settled".split(), 0)

    def score(groups: list[tuple]) -> list[np.ndarray]:
        out = []
        for batch in _batches(groups, max(1, _BLOCK_FLOATS // n)):
            rows = objective.extension_utilities(
                [(current, candidates) for _, current, candidates, _ in batch], scenarios)
            counts["calls"] += 1
            counts["rows"] += len(rows)
            out += _batch_scores(rows, batch, taus, alphas, counts)
        return out

    empty = objective.utilities(frozenset(), scenarios)[None]
    initial = _exact_pairs(empty, np.zeros(taus.size, np.intp), np.arange(taus.size),
                           taus, alphas)
    selected, values, traces = greedy_sweep(score, matroid, initial, taus, margins,
                                            -(-_LAZY_MIN_FLOATS // n), counts)
    log.debug("scored %d (candidate, tau) pairs, %d of them exactly, and "
              "skipped %d; %d group scores below the screen's size rule; computed "
              "%d candidate rows in %d extension_utilities calls and skipped %d by "
              "stale bounds; settled %d (point, step) picks by their group's first call",
              *counts.values())
    return [SweepPoint(tau=tau, selected=selected[i], h_value=float(values[i]),
                       evaluations=traces[i].evaluations + 1)
            for i, (_, tau) in enumerate(points)]


def _batches(groups: list[tuple], budget: int):
    """The groups in runs of whole groups whose candidates fit ``budget``
    rows together; a larger group is a run of its own."""
    run, size = [], 0
    for group in groups:
        if run and size + len(group[2]) > budget:
            yield run
            run, size = [], 0
        run.append(group)
        size += len(group[2])
    if run:
        yield run


def _batch_scores(rows: np.ndarray, batch: list[tuple], taus: np.ndarray,
                  alphas: np.ndarray, counts: dict) -> list[np.ndarray]:
    """The H table of every (members, current, candidates, floor) candidate
    group of one ``_solve`` score call, ``rows`` holding the groups'
    candidate rows one after the other. Adds the pairs, those scored exactly
    and the groups below the size rule to ``counts``.

    A group of at least _SCREEN_MIN_FLOATS (member taus x samples) floats is
    screened on its own (``_screen``), so its screen compares the pairs of
    one group, and marks the pairs it cannot rule out. Every pair of a
    smaller group, and of one the screen refuses, is marked. One
    ``_exact_pairs`` pass then scores the marked pairs of every group, row
    by row and member by member, and writes them into their tables. So an
    entry is the exact value wherever it can equal the larger of its
    column's maximum and the floor (per member, a value the caller holds
    for another candidate; None stands for -inf), and elsewhere an upper
    end of the exact value that lies below that larger value: the argmax,
    its smallest-id tie-break and the picked values are those of the exact
    table, and an entry that is not exact never reaches the floor.
    """
    n = rows.shape[1]
    tables, marks, rs, cs, start = [], [], [], [], 0
    for members, _, candidates, floor in batch:
        block = rows[start:start + len(candidates)]
        screened = None
        if members.size * n < _SCREEN_MIN_FLOATS:
            counts["small"] += 1
        else:
            screened = _screen(block, taus[members], alphas[members], floor)
        table, exact = screened or (np.empty((len(block), members.size)),
                                    np.ones((len(block), members.size), dtype=bool))
        r, c = np.nonzero(exact)
        rs.append(r + start)
        cs.append(members[c])
        tables.append(table)
        marks.append(exact)
        counts["pairs"] += table.size
        start += len(block)
    values = _exact_pairs(rows, np.concatenate(rs), np.concatenate(cs), taus, alphas)
    counts["exact"] += values.size
    parts = np.split(values, np.cumsum([r.size for r in rs])[:-1])
    for table, exact, part in zip(tables, marks, parts):
        table[exact] = part
    return tables


def _stale_margins(taus: np.ndarray, alphas: np.ndarray, n: int,
                   rho: float) -> np.ndarray:
    """The margin of ``greedy_sweep``'s stale-bound rule at every point.

    ``rho`` is the objective's ``utility_rounding``: each computed utility
    f~(X, y) lies within rho*f(X, y) of a real utility f that is
    nonnegative, monotone and submodular in X (so f~ >= 0 too). Let u =
    2**-53, gamma_m as in ``_screen``, d = alpha*n rounded (the
    kernel's divisor), T = tau/alpha, eta <= 2**-1075 the absolute error of
    a divide that underflows, r = rho/(1 - rho), and H*(X) = tau -
    sum_y (tau - f(X, y))+ / d. As tau - (tau - f)+ = min(f, tau), H* is
    monotone submodular.

    Error of a computed value H^(X), the exact kernel on the computed row:
    - Kernel (the Higham bound of ``_screen``): with f~ >= 0 each
      hinge term is at most tau, so their real sum S* <= n*tau and S*/d <=
      1.01*T. The sum errs by gamma_n*S*, and the divide and the subtract
      from tau round once each, so H^ lies within (gamma_n + u(1 +
      gamma_n))*1.01*T + eta + u*1.03*T <= 2*gamma_{n+1}*T + eta of the
      same H taken on f~ in real arithmetic.
    - Utilities: the hinge is 1-Lipschitz and flat past tau, so a sample
      moves its term by at most rho*tau/(1 - rho) (if f < tau, rho*f; if
      f >= tau > f~, f < tau/(1 - rho)). Divided by d, that is at most
      1.01*r*T.
    So E = 2*gamma_{n+1}*T + 1.01*r*T + eta bounds |H^(X) - H*(X)|.

    The rule. A point at S with computed value V = H^(S) keeps for a
    candidate e the gain g = W - V' (rounded) from an earlier set S' within
    S, where V' = H^(S') and W >= H^(S' + e): the exact value, or for a
    screened pair its upper end H~ + M', which ``_screen`` proves.
    Submodularity of H* and the four H values give H^(S + e) <= H*(S) +
    H*(S' + e) - H*(S') + E <= V + W - V' + 4E. Every H^ and W has
    magnitude at most 1.04*T, so the three roundings of V + g + m add at
    most 8.4*u*T + u*m <= 4.2*gamma_{n+1}*T + u*m. The code takes m =
    (16*gamma_{n+1} + 5*r)*T + 4 times the smallest normal float: its few
    roundings of nonnegative terms leave it above 12.2*gamma_{n+1}*T +
    4.04*r*T + 4*eta + u*m, so the computed V + g + m bounds H^(S + e).
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"utility_rounding must lie in [0, 1), got {rho!r}")
    r = rho / (1.0 - rho)
    return (16 * _gamma(n + 1) + 5 * r) * (taus / alphas) + 4 * _TINY


# smallest normal float64: covers the absolute error of a divide that underflows
_TINY = float(np.finfo(float).tiny)


def _gamma(m: int) -> float:
    """Higham's gamma_m = m*u / (1 - m*u) for float64, u = 2**-53."""
    u = 2.0**-53
    return m * u / (1 - m * u)


def _screen(rows: np.ndarray, taus: np.ndarray, alphas: np.ndarray,
            floor: np.ndarray | None) -> tuple | None:
    """A (candidates x taus) H table of one greedy group, ranked before it
    is scored, and the mask of the pairs to score exactly; None for a group
    with a non-finite row or an overflow.

    The table holds, at each pair, its upper end H~ + M' (below). It bounds
    the pair's exact value from above and equals it where k = 0. A pair left
    out of the mask can neither equal nor pass the larger of its column's
    exact maximum and the floor (per tau, a value the caller holds for
    another candidate, or -inf); once the masked pairs hold their exact
    values, the table's argmax, its smallest-id tie-break and its picked
    values are those of the exact table.

    Rank. With each row sorted (s_0 <= ... <= s_{n-1}), P[k] the sum of
    its k smallest samples and k = #{s < tau} (``np.searchsorted``),
    sum (tau - u)+ = k*tau - P[k] (Rockafellar & Uryasev 2000), so
    H~ = tau - (k*tau - P[k]) / d with d = alpha*n rounded, the divisor of
    the exact kernel too. P is read only at the member taus: with the taus
    in ascending order (a stable argsort, once per group), one
    ``np.add.reduceat`` per chunk sums each row's samples between
    consecutive k, and a cumsum over those segments gives P[k]; no sample
    past the largest k is summed. The chunk of candidates that is sorted at
    once stays within _GROUP_FLOATS floats. The table, the margins and the
    mask are computed once for the whole group from each pair's k and P[k]
    and each row's minimum; the chunks' buffers are freed before the exact
    kernel runs.

    Bound. Let u = 2**-53, gamma_m = m*u / (1 - m*u) (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3-4; n*u < 0.01 is assumed), S*
    the real hinge sum, W = k*(tau + |s_0|) and R = W/d. Every term of S*
    is tau - s_i <= tau + |s_0|, so S* <= W, and k*tau, sum_{i<k} |s_i| and
    |P*[k]| are <= W too (|s_i| <= max(|s_0|, tau) for s_i < tau).
    - Screen: P[k] adds k samples in some order (pairwise within a
      segment, then segment by segment), and a sum of k terms in any order
      errs by at most gamma_{k-1} times the sum of their magnitudes, so by
      at most gamma_{k-1}*W. The multiply k*tau and the subtract round once
      each, so |S~ - S*| <= (u + gamma_{k-1})(1+u)W + u*S* <= gamma_{k+1}*W.
    - Exact kernel: each hinge term tau - u_i rounds once (the terms with
      u_i >= tau are exactly 0), and a sum of n terms in any order, numpy's
      pairwise sum included, errs by at most gamma_{n-1} times the sum of
      their magnitudes, so |S^ - S*| <= gamma_n*S* <= gamma_n*W.
    - The divide and the subtract from tau round once on each side:
      |H~ - H^| <= |S~ - S^|/d + u(|S~| + |S^|)/d + u(|tau - q~| + |tau - q^|)
      <= 2*gamma_{n+1}*R + 2u(1 + gamma_{n+1})(2 + u)*R + 2u*tau
      <= 5*gamma_{n+1}*(R + tau) =: M.
    The code computes M' = 10*gamma_{n+1}*(R + tau): six roundings of
    nonnegative terms leave M' >= 1.98*M, and the interval ends H~ -+ M'
    round by at most u(|H~| + M') <= 0.11*M + u*M' (|H~| <= 1.01(tau + R)),
    so the computed ends still enclose [H~ - M, H~ + M]. The smallest normal
    float is added to cover the absolute error (at most 2**-1075) of a
    divide that underflows. At k = 0 both sides compute exactly tau, and
    the bound is 0. An overflow, of a segment sum too, makes the entries
    that use it non-finite, and the screen returns None.

    Mask. A column's exact maximum is at least its largest lower end
    L = max(H~ - M'). A pair whose upper end H~ + M' is below L, or below
    the floor, can neither reach the larger of that maximum and the floor
    nor pass it. The other pairs with M' > 0 are marked; the pairs with
    k = 0 are exact already.
    """
    n = rows.shape[1]
    step = max(1, _GROUP_FLOATS // n)
    order = np.argsort(taus, kind="stable")
    ascending = taus[order]
    table = np.empty((len(rows), taus.size))  # P[k] until H~ is computed
    k = np.empty(table.shape)  # exact as floats; reused as a work buffer below
    least = np.empty(len(rows))
    # a chunk's sorted rows, one after the other, and a 0.0 that k = n on its
    # last row may index
    flat = np.empty(min(step, len(rows)) * n + 1)
    for lo in range(0, len(rows), step):
        size = min(step, len(rows) - lo) * n
        ordered = flat[:size].reshape(-1, n)
        ordered[:] = rows[lo:lo + step]
        ordered.sort(axis=1)
        if not np.isfinite(ordered[:, [0, -1]]).all():
            return None  # the proof needs finite rows
        flat[size] = 0.0
        ends = np.array([row.searchsorted(ascending) for row in ordered])
        # row i's segments between its consecutive k, then its tail
        cuts = np.zeros((len(ordered), taus.size + 1), dtype=np.intp)
        cuts[:, 1:] = ends
        cuts += np.arange(0, size, n)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            parts = np.add.reduceat(flat[:size + 1], cuts.ravel())
            parts = parts.reshape(cuts.shape)[:, :-1]
            parts[cuts[:, 1:] == cuts[:, :-1]] = 0.0
            table[lo:lo + step, order] = np.cumsum(parts, axis=1)
        k[lo:lo + step, order] = ends
        least[lo:lo + step] = ordered[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        # M' = 10*gamma_{n+1}*(k*(tau + |s_0|) / d + tau) + tiny where k > 0,
        # and H~ = tau - (k*tau - P[k]) / d
        divisor = alphas * n
        bound = np.add.outer(np.abs(least), taus)
        bound *= k
        bound /= divisor
        bound += taus
        bound *= 10 * _gamma(n + 1)
        bound += _TINY
        bound[k == 0] = 0.0
        k *= taus
        np.subtract(k, table, out=table)
        table /= divisor
        np.subtract(taus, table, out=table)
    if not (np.isfinite(bound).all() and np.isfinite(table).all()):
        return None
    low = np.subtract(table, bound, out=k).max(axis=0, initial=-np.inf)
    if floor is not None:
        np.maximum(low, floor, out=low)
    exact = bound > 0
    table += bound  # now the upper ends
    exact &= table >= low
    return table, exact


def _exact_pairs(rows: np.ndarray, r: np.ndarray, c: np.ndarray, taus: np.ndarray,
                 alphas: np.ndarray) -> np.ndarray:
    """``auxiliary_scores`` of row ``r[p]`` at point ``c[p]`` for every pair
    p, in chunks of pairs within _GROUP_FLOATS floats."""
    values = np.empty(r.size)
    step = max(1, _GROUP_FLOATS // rows.shape[1])
    for lo in range(0, r.size, step):
        at = c[lo:lo + step]
        values[lo:lo + step] = auxiliary_scores(rows[r[lo:lo + step]], taus[at], alphas[at])
    return values


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
                    family, width: int):
    """Yield (ids, block) where block holds the utilities of the id rows ``ids``.

    ``family`` yields (sets x size) id arrays and is read lazily; no chunk
    spans two of them. One ``set_utilities`` call per chunk, no cache. A
    chunk has as many rows as keep both the (rows x samples) block and the
    caller's (rows x width) result within _BLOCK_FLOATS floats, and at least one.
    """
    rows = max(1, _BLOCK_FLOATS // max(len(scenarios), width))
    for ids in family:
        for start in range(0, len(ids), rows):
            chunk = ids[start:start + rows]
            yield chunk, objective.set_utilities(chunk, scenarios)


def _shortfall(u: np.ndarray, tau: np.ndarray) -> np.ndarray:
    hinge = tau - u
    return np.maximum(hinge, 0.0, out=hinge)


def _sample_sums(block: np.ndarray, taus: np.ndarray, term) -> np.ndarray:
    """sum over samples of term(u, tau) for every row u of block and every tau.

    Row by row the same bits as ``term(u[:, None], taus[None, :]).sum(axis=0)``
    on a single set. Returns a (rows x taus) array. Slices of taus and chunks
    of rows keep the (rows x samples x slice) temporary within _BLOCK_FLOATS
    floats. No slice holds a lone tau of a longer grid: numpy sums a (samples
    x 1) column pairwise but a wider block one sample at a time, which would
    change the last bits. So a slice holds at least two taus, even past the
    budget, and the last may hold one more than the rest.
    """
    rows, samples = block.shape
    count = taus.size
    width = count if count == 1 else max(2, _BLOCK_FLOATS // samples)
    starts = list(range(0, count, width))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    out = np.empty((rows, count))
    for a, b in zip(starts, starts[1:] + [count]):
        step = max(1, _BLOCK_FLOATS // (samples * (b - a)))
        for lo in range(0, rows, step):
            chunk = block[lo:lo + step, :, None]
            out[lo:lo + step, a:b] = term(chunk, taus[a:b]).sum(axis=1)
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

    Returns the best (set, tau) pair of the grid and the best per-set exact
    cvar (whose maximizing tau needs no grid). Ties go to the earliest set
    in enumeration order, then to the smallest tau within it; a NaN cvar
    never wins. Taus must be finite and nonnegative. A NaN utility raises
    ``ValueError`` naming the earliest such set. Every result is
    bit-identical to scoring every set at every tau, one set at a time.

    Two passes read the family by size in blocks, one ``set_utilities``
    call each, with every buffer within _BLOCK_FLOATS floats (512 KiB)
    unless one set's samples or taus exceed it (see ``_utility_blocks`` and
    ``_sample_sums``); at the 16-element cap the (sets,) vector of upper
    ends is 2**16 floats. Pass 1 sorts each row and takes its cvar with
    ``sorted_rows_cvar_var`` and an upper end U = cvar + M' of its grid H
    (below). L is the grid maximum of the cvar-best set, computed on its
    unsorted row as pass 2 computes it. max over tau of H(S, tau) is the
    cvar of S (Rockafellar & Uryasev 2000), so a set with U < L has every
    computed grid H below L: it can neither reach nor tie the grid optimum,
    which is at least L. Pass 2 recomputes the utilities of the other sets
    (U >= L, or U not finite) and scores them at every tau.

    Margin. Let u = 2**-53, gamma_m = m*u / (1 - m*u) (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3-4; n*u < 0.01 is assumed),
    eta <= 2**-1075 the absolute error of a divide that underflows,
    v_0 <= ... <= v_{n-1} a finite sorted row, A = max(|v_0|, |v_{n-1}|),
    T the largest tau, d = alpha*n rounded (the divisor of both kernels,
    d <= n) and k = ceil(d - 1e-9) clipped to [1, n] (the estimator's tail
    size, so k - 1 < d). phi(t) = t - sum (t - v_i)+ / d is concave with
    slope 1 - #{v_i < t}/d, and the real cvar C* = v_k + sum_{i<k} (v_i -
    v_k)/d is phi(v_k).
    - Grid-free gap: phi rises up to v_k, and past it its slope is at most
      1 - k/d, so max phi <= C* + 2A(d - k)+/d. The term is nonzero only
      where the 1e-9 backoff of k applies.
    - cvar: with E = sum_{i<k} (v_k - v_i) < 2A*d, the differences round
      once each and their sum in any order errs by gamma_{k-1}*E; the
      divide and the add round once more, and |C*| <= A, so
      |cvar - C*| <= 5*gamma_{k+1}*A + 2*eta.
    - Grid H: with x = sum (tau - v_i)+ / d <= (n/d)(T + A), each positive
      hinge term rounds once (the others are exactly 0), their sum in any
      order errs by gamma_{n-1} times itself, and the divide and the
      subtract from tau round once each, so the computed H^ <= H* +
      gamma_{n+2}*x + u*T + 2*eta <= H* + 2*gamma_{n+2}(n/d)(T + A) + 2*eta,
      where the real H* <= max phi.
    As n/d >= 1, every computed grid H of the set is at most cvar + M with
    M = 7*gamma_{n+2}(n/d)(T + A) + 2A(d - k)+/d + 4*eta. The code computes
    M' with every coefficient doubled and 4 times the smallest normal float
    for the eta term: the few roundings of its nonnegative terms leave
    M' >= 1.99*M, and the add cvar + M' errs by at most u(1.01*A + M')
    < 0.99*M, so U >= cvar + M. An overflow makes cvar or M' non-finite,
    or a grid H -inf, and a set with a non-finite U survives. The cvar-best
    set survives too, as its grid H are at most its U.
    """
    _check_ground(objective, matroid)
    alpha = check_risk_level(alpha)
    taus = _tau_array(taus)
    if taus.size == 0:
        raise ValueError("at least one tau grid point is required")
    family = list(_mask_ids(matroid.feasible_masks(), matroid.ground.size))
    n = len(scenarios)
    d, k = alpha * n, _tail_index(alpha, n)
    scale, excess = 14 * _gamma(n + 2) * n / d, 4 * max(0.0, d - k) / d
    top = float(taus.max())

    def grid_h(block: np.ndarray) -> np.ndarray:
        return taus - _sample_sums(block, taus, _shortfall) / d

    cvar_best_set, cvar_tau, cvar_star, cvar_row = frozenset(), 0.0, -np.inf, None
    upper = []  # U of every set, one array per block
    for ids, block in _utility_blocks(objective, scenarios, family, 1):
        ordered = np.sort(block, axis=1)
        nan = np.isnan(ordered[:, -1])  # NaN sorts last
        if nan.any():
            raise ValueError(f"H of the set {ids[int(nan.argmax())].tolist()} "
                             "is NaN: the objective returned NaN utilities")
        cvar, var = sorted_rows_cvar_var(ordered, alpha)
        r = int(np.where(np.isnan(cvar), -np.inf, cvar).argmax())  # earliest set
        if cvar[r] > cvar_star:
            cvar_star, cvar_tau = float(cvar[r]), float(var[r])
            cvar_best_set, cvar_row = frozenset(ids[r].tolist()), block[r].copy()
        reach = np.maximum(np.abs(ordered[:, 0]), np.abs(ordered[:, -1]))
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite U survive
            upper.append(cvar + (scale * (top + reach) + excess * reach + 4 * _TINY))
    low = -np.inf if cvar_row is None else grid_h(cvar_row[None]).max()
    keep = np.concatenate([(u >= low) | ~np.isfinite(u) for u in upper])
    sizes = np.cumsum([len(ids) for ids in family])[:-1]
    survivors = [ids[kept] for ids, kept in zip(family, np.split(keep, sizes))]
    best_set, best_tau, best_h = frozenset(), 0.0, -np.inf
    for ids, block in _utility_blocks(objective, scenarios, survivors, taus.size):
        h = grid_h(block)
        cols = h.argmax(axis=1)  # first occurrence: smallest tau
        row_max = h[np.arange(len(block)), cols]
        r = int(row_max.argmax())  # first occurrence: earliest set
        if row_max[r] > best_h:
            best_h = float(row_max[r])
            best_set, best_tau = frozenset(ids[r].tolist()), float(taus[cols[r]])
    log.debug("brute force: %d feasible sets, %d of them scored on the tau grid",
              len(keep), np.count_nonzero(keep))
    return BruteForceResult(best_set=best_set, best_tau=best_tau, h_star=best_h,
                            cvar_best_set=cvar_best_set, cvar_tau=cvar_tau,
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
    scenario never change any value and are excluded from the ratios. A
    NaN G({e}) or ratio raises ``ValueError`` naming the element.

    The ratios [G(S) - G(S - e)] / G({e}) run over e in S for S the full
    ground set X ("total_over_ground_set") or every independent S
    ("exact_matroid_enumeration"). 1 - w and the clip are monotone, so the
    result is clip(1 - w) for w the least ratio over all (S, e, tau), and it
    is exactly 1 once a ratio is <= 0, where the reading stops: the least
    ratio is the same number in any order, and any ratio <= 0, -inf from an
    overflow included, clips to 1. With no ratio at all (every element
    worthless) w is +inf and the result 0. A NaN met before the stop raises;
    one past it is never read. Total mode reads G(X), then G({e}) and
    G(X - e) element by element, at every tau.

    Exact mode reads the feasible family in the order (pass, size,
    element): in two passes over slices of the taus, each in the family's
    (size, lexicographic) order, one size at a time in blocks, and within a
    block element by element. The first pass covers the two lowest positive
    taus (all of them when there are fewer than four, so no slice holds a
    lone tau) and fills G({e}) at every tau too, since an element is
    worthless only if G({e}) <= 0 at all of them. It nearly always stops:
    at tau <= min_y f(S - e, y), G(S) and G(S - e) are the same sum of tau,
    bit for bit, so the ratio is exactly 0. Only a call without a stop
    reads the family again for the other taus, and the least ratio of both
    passes is the one of every tau. As soon as a block's G rows are filled,
    the ratios of all its (set, member) pairs are taken at once, as S - e
    and {e} come earlier in that order. In that order, the first element
    with a NaN G({e}) or a NaN ratio raises, unless an earlier one has a
    ratio <= 0: a NaN at a tau of the second pass raises only if the first
    pass did not stop. A block never spans two sizes, so a stop at size r
    calls the objective on no larger set. Each size's id rows are built
    once for both passes. The (sets x taus) G matrix is allocated empty and
    column-major: a pass writes only its own columns (and the first the
    rows of {e} whole), so the second pass's pages are touched only when it
    runs, and rows past the stop are never filled. A DEBUG record of the
    ``cvargreedy`` logger gives the rows read by each pass. No other buffer
    exceeds _BLOCK_FLOATS floats (512 KiB). Bit-identical to one set at a time at every tau: no slice
    of ``_sample_sums`` holds a lone tau, so a G row has the same bits on
    either slice of the grid.
    """
    _check_ground(objective, matroid)
    grid = _tau_array(taus)
    if method not in ("total_over_ground_set", "exact_matroid_enumeration"):
        raise ValueError(f"unknown curvature method {method!r}")
    positive = np.array(sorted(set(grid[grid > 0].tolist())))
    if positive.size == 0:
        return Curvature(0.0, method)
    if method == "exact_matroid_enumeration":
        worst = _least_family_ratio(objective, matroid, scenarios, positive)
    else:
        def g_of(subset: frozenset[int]) -> np.ndarray:  # the G row of one set
            u = objective.utilities(subset, scenarios)
            return _sample_sums(u[None], positive, np.minimum)[0]

        full = frozenset(matroid.ground.elements)
        g_full = g_of(full)
        worst = np.inf
        for e in matroid.ground.elements:
            single = g_of(frozenset((e,)))
            if _worthless(e, single):
                continue
            low = ((g_full - g_of(full - {e})) / single).min()
            if np.isnan(low):
                raise _nan_ratio(e)
            worst = min(worst, low)
            if worst <= 0.0:
                break
    # worst is +inf when every element is empirically worthless (no ratio)
    k = np.clip(1.0 - worst, 0.0, 1.0)
    return Curvature(float(k), method)


def _least_family_ratio(objective: StochasticObjective, matroid: Matroid,
                        scenarios: ScenarioSet, positive: np.ndarray) -> float:
    """The least curvature ratio over the feasible family, or one <= 0 where
    the reading stops: exact mode of ``auxiliary_curvature``."""
    n = matroid.ground.size
    # row i of g is the set with bitmask masks[i]; pos maps a bitmask to its row.
    # Column-major, so a pass fills pages of its own columns only.
    masks = matroid.feasible_masks()
    pos = np.full(1 << n, -1)
    pos[masks] = np.arange(len(masks))
    g = np.empty((len(masks), positive.size), order="F")
    single = np.zeros((n, positive.size))  # G({e}) at every tau, from the first pass
    split = 2 if positive.size >= 4 else positive.size
    families = itertools.tee(_mask_ids(masks, n))
    worst, read = np.inf, [0, 0]
    for p, (family, cols) in enumerate(zip(families, (slice(split), slice(split, None)))):
        taus = positive[cols]
        if worst <= 0.0 or taus.size == 0:
            break
        for ids, block in _utility_blocks(objective, scenarios, family, positive.size):
            rows = np.arange(read[p], read[p] + len(block))
            read[p] += len(block)
            if p == 0 and ids.shape[1] == 1:
                single[ids[:, 0]] = g[rows] = _sample_sums(block, positive, np.minimum)
            else:
                g[rows, cols] = _sample_sums(block, taus, np.minimum)
            worst = min(worst, _block_least_ratio(g, rows, ids, masks, pos, single, cols))
            if worst <= 0.0:
                break
    log.debug("exact curvature: read %d of %d feasible sets at %d taus, then %d at %d taus",
              read[0], len(masks), split, read[1], positive.size - split)
    return worst


def _block_least_ratio(g: np.ndarray, rows: np.ndarray, ids: np.ndarray,
                       masks: np.ndarray, pos: np.ndarray, single: np.ndarray,
                       cols: slice) -> float:
    """The least ratio [G(S) - G(S - e)] / G({e}) over the (set, member)
    pairs of one block, the sets ``ids`` at the rows ``rows`` of ``g``, and
    over the taus of the columns ``cols`` of ``g`` and ``single``.

    Worthless members are left out. The first element in ascending order
    with a NaN G({e}), a NaN ratio or a ratio <= 0 decides: a NaN raises,
    and otherwise its least ratio is returned. The ratios go in chunks of
    pairs within _BLOCK_FLOATS floats; every non-finite one is dealt with
    here, so their float warnings are off."""
    nan = np.isnan(single).any(axis=1)
    i, j = np.nonzero((nan | (single > 0.0).any(axis=1))[ids])
    if i.size == 0:
        return np.inf
    members, top = ids[i, j], rows[i]
    below = pos[masks[top] ^ (1 << members)]
    low = np.empty(i.size)
    step = max(1, _BLOCK_FLOATS // len(range(g.shape[1])[cols]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, i.size, step):
            at = slice(lo, lo + step)
            ratio = (g[top[at], cols] - g[below[at], cols]) / single[members[at], cols]
            low[at] = ratio.min(axis=1)  # NaN if any is
    bad = np.isnan(low) | (low <= 0.0) | nan[members]
    if not bad.any():
        return float(low.min())
    e = int(members[bad].min())
    if nan[e]:
        raise _nan_single(e)
    mine = low[members == e]
    if np.isnan(mine).any():
        raise _nan_ratio(e)
    return float(mine.min())


def _nan_ratio(e: int) -> ValueError:
    return ValueError(f"a curvature ratio of element {e} is NaN: "
                      "the objective returned NaN utilities")


def _nan_single(e: int) -> ValueError:
    return ValueError(f"G({{{e}}}) is NaN: the objective returned NaN "
                      f"utilities for element {e}")


def _worthless(e: int, single: np.ndarray) -> bool:
    """True if G({e}) is 0 at every tau, so e never changes any value.

    A NaN G({e}) is an error: it would pass for worthless and report a
    curvature of 0, the best possible bound."""
    if np.isnan(single).any():
        raise _nan_single(e)
    return not np.any(single > 0.0)


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
    _check_ground(objective, matroid)
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
