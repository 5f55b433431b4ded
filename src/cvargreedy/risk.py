"""Empirical value-at-risk / conditional value-at-risk estimators and the
scalarized objective used by the tau sweep.

Conventions for a sample v_(1) <= ... <= v_(n) and risk level alpha in (0, 1]:

* var   = v_(ceil(alpha*n)), the smallest value whose empirical CDF reaches alpha.
* cvar  = (sum_{i<k} v_(i) + (alpha*n - (k-1)) * v_(k)) / (alpha*n) with
  k = ceil(alpha*n). The boundary order statistic is fractionally weighted so
  that maximizing the scalarized objective over tau recovers cvar exactly on
  finite samples, with the maximum attained at tau = var.
* auxiliary(tau) = tau - mean(max(tau - v, 0)) / alpha, concave in tau.

alpha = 1 is the risk-neutral case: cvar reduces to the sample mean.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

# ceil(alpha*n) is computed with a small backoff so float noise in alpha*n
# (e.g. 0.07*100 == 7.000000000000001) cannot push the index up by one.
_INDEX_TOL = 1e-9


def check_risk_level(alpha: float) -> float:
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
        raise ValueError(f"risk level must be a number, got {alpha!r}")
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"risk level must lie in (0, 1], got {alpha}")
    return alpha


def required_sample_count(epsilon: float, delta: float) -> int:
    """Samples sufficient for cvar error below epsilon with confidence 1 - delta:
    ceil(ln(1/delta) / epsilon^2), and at least 1. A count past the float
    range is a ValueError."""
    for name, value in (("epsilon", epsilon), ("delta", delta)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0.0 < epsilon:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    # past 1e300 one sample suffices, and an int that large may not convert to float
    epsilon = float(min(epsilon, 1e300))
    try:  # a divide that overflows, or by a square that underflowed to 0, raises
        return max(1, math.ceil(-math.log(delta) / (epsilon * epsilon)))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"epsilon={epsilon} and delta={delta} need a sample count "
                         f"past the float range") from None


def _values(sample) -> np.ndarray:
    values = np.asarray(sample, dtype=float)
    if values.ndim != 1 or values.size == 0 or not np.all(np.isfinite(values)):
        raise ValueError("a nonempty 1-d sample of finite values is required")
    return values


def _tail_index(alpha: float, n: int) -> int:
    k = math.ceil(alpha * n - _INDEX_TOL)
    return min(max(k, 1), n)


def _cvar_var(sample, alpha: float) -> tuple[float, float]:
    values = _values(sample)
    alpha = check_risk_level(alpha)
    cvar, var = sorted_rows_cvar_var(np.sort(values)[None, :], alpha)
    return float(cvar[0]), float(var[0])


def empirical_cvar(sample, alpha: float) -> float:
    """Mean of the worst alpha-fraction of the sample (fractional tail weighting)."""
    return _cvar_var(sample, alpha)[0]


def sorted_rows_cvar_var(v: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(cvar, var) of every row of a (rows x n) array sorted ascending along rows.

    The one VaR/CVaR estimator: ``empirical_cvar`` and ``cvar_of_set`` read
    it on one row. Each tail sum is numpy's pairwise sum over one row, so a
    row of a block gets the same bits as the row alone.
    """
    n = v.shape[1]
    k = _tail_index(alpha, n)
    var = v[:, k - 1]
    # shifted form of (sum_{i<k} v_i + (mass - (k-1)) * v_k) / mass: exact on
    # constant samples and never exceeds the var order statistic v_k
    return var + np.sum(v[:, : k - 1] - var[:, None], axis=1) / (alpha * n), var


def auxiliary_scores(u: np.ndarray, taus: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """The greedy's H kernel: tau - sum((tau - u)+) / (alpha * n) at every pair, unchecked.

    ``u`` is one utility vector for every (tau, alpha) pair, or a
    (pairs x n) array with one vector per pair; a pair gets the same bits
    either way. Each row's pairwise np.sum keeps the hinge sum stable for
    large batches, which the concavity and slope checks rely on. The (pairs
    x n) hinge temporary is made whole: callers bound it (``sga`` scores a
    greedy group in chunks of pairs).
    """
    hinge = taus[:, None] - u
    np.maximum(hinge, 0.0, out=hinge)
    return taus - hinge.sum(axis=1) / (alphas * u.shape[-1])


def auxiliary_from_values(values, tau: float, alpha: float) -> float:
    """tau minus the normalized expected shortfall of the sample below tau."""
    values = _values(values)
    alpha = check_risk_level(alpha)
    tau = float(tau)
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"threshold tau must be finite and nonnegative, got {tau}")
    return float(auxiliary_scores(values, np.array([tau]), np.array([alpha]))[0])


def cvar_of_set(objective, subset, scenarios, alpha: float) -> tuple[float, float]:
    """(empirical cvar, maximizing tau) for one set; the tau is the empirical var."""
    return _cvar_var(objective.utilities(subset, scenarios), alpha)
