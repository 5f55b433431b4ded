"""Risk estimators: frozen examples, agreement with the plain estimators kept
in conftest, order identities and the inner-max link between the scalarized
objective and cvar."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvargreedy import (auxiliary_from_values, check_risk_level, cvar_of_set,
                        empirical_cvar, required_sample_count)
from cvargreedy.risk import auxiliary_scores
from cvargreedy.synthetic import random_instance
from conftest import empirical_var, plain_cvar_var, plain_h

value_arrays = st.lists(
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60).map(np.array)
alphas = st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0])


# ------------------------------------------------------------ frozen values

def test_var_examples():
    assert empirical_var([1, 2, 3, 4], 0.5) == 2.0
    assert empirical_var([1, 2, 3, 4], 1.0) == 4.0
    assert empirical_var([7, 7, 7], 0.3) == 7.0
    assert empirical_var([4, 3, 2, 1], 0.5) == 2.0  # order independent


def test_cvar_examples():
    assert empirical_cvar([1, 2, 3, 4], 0.5) == 1.5
    assert empirical_cvar([1, 2, 3, 4], 1.0) == 2.5
    assert empirical_cvar([7, 7, 7], 0.3) == 7.0
    # fractional tail: alpha*n = 1.2 weights the second order statistic by 0.2
    assert empirical_cvar([1, 2, 3, 4], 0.3) == pytest.approx((1 + 0.2 * 2) / 1.2)


def test_risk_level_validation():
    for bad in (0.0, -0.1, 1.01):
        with pytest.raises(ValueError):
            empirical_var([1.0], bad)
    assert check_risk_level(1) == 1.0
    for bad in (True, "0.5", None):
        with pytest.raises(ValueError, match="risk level must be a number"):
            check_risk_level(bad)
    with pytest.raises(ValueError):
        empirical_cvar([], 0.5)
    # a non-finite value would turn the shifted tail sum into inf - inf
    for bad in ([1.0, float("inf")], [float("nan")], [-float("inf"), 2.0]):
        for estimator in (empirical_var, empirical_cvar):
            with pytest.raises(ValueError, match="finite"):
                estimator(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            auxiliary_from_values(bad, 1.0, 0.5)


def test_auxiliary_examples():
    # empty-set utilities are all zero: value is tau * (1 - 1/alpha)
    assert auxiliary_from_values(np.zeros(10), 2.0, 0.5) == -2.0
    assert auxiliary_from_values(np.zeros(10), 0.0, 0.5) == 0.0
    assert auxiliary_from_values([1.0, 3.0], 2.0, 0.5) == 1.0
    with pytest.raises(ValueError):
        auxiliary_from_values([1.0], -0.5, 0.5)


def test_auxiliary_rejects_non_finite_tau():
    # NaN slips past a plain "tau < 0" check and would come back as nan
    obj = random_instance(3, size=3)
    sc = obj.sample_scenarios(5, seed=0)
    for tau in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            auxiliary_from_values([1.0, 2.0], tau, 0.5)
        with pytest.raises(ValueError, match="finite"):
            auxiliary_from_values(obj.utilities({0}, sc), tau, 0.5)


def test_cvar_of_set_and_auxiliary_on_objective():
    obj = random_instance(5, size=4)
    sc = obj.sample_scenarios(40, 3)
    s = frozenset({0, 2})
    u = obj.utilities(s, sc)
    cvar, tau_star = cvar_of_set(obj, s, sc, 0.4)
    assert cvar == empirical_cvar(u, 0.4)
    assert tau_star == empirical_var(u, 0.4)
    # the subset is validated once, by the objective's utilities
    for bad in ({0, 9}, {-1}, {True}):
        with pytest.raises(ValueError, match="element"):
            cvar_of_set(obj, bad, sc, 0.4)


def test_two_point_plateau():
    # with values {1, 3} at alpha = 0.5 the scalarized objective plateaus at 1
    for tau in (1.0, 2.0, 3.0):
        assert auxiliary_from_values([1.0, 3.0], tau, 0.5) == 1.0
    cvar, tau_star = empirical_cvar([1.0, 3.0], 0.5), empirical_var([1.0, 3.0], 0.5)
    assert (cvar, tau_star) == (1.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5000),
       alpha=st.one_of(alphas, st.floats(1e-4, 1.0)), ties=st.booleans(),
       tau_at=st.floats(0.0, 1.2))
def test_estimators_match_plain_references(seed, n, alpha, ties, tau_at):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 50.0, n)
    if ties:
        values = np.round(values / 10.0)
    tau = tau_at * float(values.max())
    cvar, var = plain_cvar_var(values, alpha)
    assert repr(empirical_cvar(values, alpha)) == repr(cvar)
    assert repr(empirical_var(values, alpha)) == repr(var)
    assert repr(auxiliary_from_values(values, tau, alpha)) == repr(
        plain_h(values, tau, alpha))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8),
       samples=st.integers(1, 400), alpha=alphas)
def test_cvar_of_set_matches_plain_reference(seed, size, samples, alpha):
    obj = random_instance(seed, size=size)
    sc = obj.sample_scenarios(samples, seed)
    rng = np.random.default_rng(seed)
    subset = frozenset(np.flatnonzero(rng.random(size) < 0.5).tolist())
    expected = plain_cvar_var(obj.utilities(subset, sc), alpha)
    assert repr(cvar_of_set(obj, subset, sc, alpha)) == repr(expected)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 3, 60, 1000, 70_001]),
       pairs=st.integers(0, 9))
def test_per_pair_rows_score_like_one_row_each(seed, n, pairs):
    # 70,001 samples put 3 pairs in each hinge chunk
    rng = np.random.default_rng(seed)
    rows = rng.random((pairs, n)) * 10
    taus = np.array([rng.choice(row) if rng.random() < 0.5 else rng.uniform(0, 12)
                     for row in rows])
    alphas = rng.choice([0.001, 0.3, 1.0], pairs)
    got = auxiliary_scores(rows, taus, alphas)
    assert got.shape == (pairs,)
    for i in range(pairs):
        assert got[i] == plain_h(rows[i], taus[i], alphas[i])
        assert got[i] == auxiliary_scores(rows[i], taus[i:i + 1], alphas[i:i + 1])[0]


def test_required_sample_count():
    # ceil(ln(10) / 0.05^2) = ceil(921.034) = 922
    assert required_sample_count(0.05, 0.1) == 922
    assert required_sample_count(0.1, 0.5) == 70
    with pytest.raises(ValueError):
        required_sample_count(0.0, 0.1)
    with pytest.raises(ValueError):
        required_sample_count(0.1, 1.0)
    # a huge epsilon still needs one sample; a tiny delta has a finite count
    assert required_sample_count(float("inf"), 0.1) == 1
    assert required_sample_count(1e200, 0.1) == required_sample_count(10**400, 1e-300) == 1
    assert required_sample_count(0.1, 1e-320) == math.ceil(-math.log(1e-320) / 0.01)
    # a count past the float range, and bools, are refused
    for epsilon in (1e-200, 1e-160):  # epsilon^2 underflows to 0, or to a subnormal
        with pytest.raises(ValueError, match="past the float range"):
            required_sample_count(epsilon, 0.5)
    with pytest.raises(ValueError, match="epsilon must be a number"):
        required_sample_count(True, 0.5)
    with pytest.raises(ValueError, match="delta must be a number"):
        required_sample_count(0.1, False)


# -------------------------------------------------------------- identities

@settings(max_examples=200, deadline=None)
@given(value_arrays, alphas)
def test_cvar_below_var_below_max(values, alpha):
    cvar = empirical_cvar(values, alpha)
    var = empirical_var(values, alpha)
    assert cvar <= var + 1e-9
    assert var <= values.max()


@settings(max_examples=150, deadline=None)
@given(value_arrays)
def test_risk_neutral_cvar_is_mean(values):
    assert empirical_cvar(values, 1.0) == pytest.approx(
        values.mean(), rel=1e-12, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(value_arrays, alphas)
def test_inner_max_recovers_cvar(values, alpha):
    # maximizing the scalarized objective over the sample grid gives cvar,
    # attained at the empirical var
    h_grid = [auxiliary_from_values(values, float(t), alpha) for t in values]
    cvar = empirical_cvar(values, alpha)
    assert max(h_grid) == pytest.approx(cvar, abs=1e-9 * max(1.0, values.max()))
    var = empirical_var(values, alpha)
    assert auxiliary_from_values(values, var, alpha) == pytest.approx(
        cvar, abs=1e-9 * max(1.0, values.max()))


def test_degenerate_constant_sample():
    for alpha in (0.2, 1.0):
        assert empirical_cvar(np.full(9, 3.25), alpha) == 3.25
        assert empirical_var(np.full(9, 3.25), alpha) == 3.25


# ---------------------------------------------------- concavity and slopes

@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
def test_concavity_and_slope_bounds(alpha, rng):
    values = rng.uniform(0, 20, 300)
    taus = np.linspace(0.0, 25.0, 120)
    h = np.array([auxiliary_from_values(values, t, alpha) for t in taus])
    second = np.diff(h, 2)
    assert second.max() <= 1e-9
    slopes = np.diff(h) / np.diff(taus)
    assert slopes.max() <= 1.0 + 1e-9
    assert slopes.min() >= -(1.0 / alpha - 1.0) - 1e-9


def test_monotone_submodular_in_set_argument():
    # fixed tau: gains shrink as the set grows, and never go negative
    obj = random_instance(11, size=6)
    sc = obj.sample_scenarios(60, 4)
    rng = np.random.default_rng(1)
    tau, alpha = 3.0, 0.5

    def h(s):
        return auxiliary_from_values(obj.utilities(s, sc), tau, alpha)

    for _ in range(60):
        small = frozenset(int(e) for e in rng.choice(6, 2, replace=False))
        big = small | {int(e) for e in rng.choice(6, 2, replace=False)}
        e = int(rng.integers(0, 6))
        if e in big:
            continue
        gain_small = h(small | {e}) - h(small)
        gain_big = h(big | {e}) - h(big)
        assert gain_big <= gain_small + 1e-9
        assert gain_small >= -1e-9


# ------------------------------------------------------- sampling accuracy

def test_sampling_accuracy_uniform_smoke():
    # f ~ U[0,1] has cvar alpha/2; quick version of the full acceptance check
    eps, delta = 0.1, 0.2
    n = required_sample_count(eps, delta)
    hits = 0
    trials = 60
    for seed in range(trials):
        u = np.random.default_rng(seed).random(n)
        if abs(empirical_cvar(u, 0.5) - 0.25) < eps:
            hits += 1
    assert hits >= (1 - delta) * trials
