"""Greedy maximization over a matroid.

The greedy loop keeps adding the candidate with the largest value gain until
no feasible extension remains, so the output is always a maximal independent
set. Negative gains are accepted; for monotone objectives they do not occur.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .matroid import Matroid

SetFunction = Callable[[frozenset], float]
GroupScores = Callable[[np.ndarray, frozenset, list], np.ndarray]


@dataclass
class GreedyTrace:
    """Pick order with value gains, plus the number of oracle evaluations.

    ``settled`` counts the steps settled from their group's first candidate
    (see ``greedy_sweep``), and ``skipped`` the evaluations of those steps
    whose value was never computed."""

    picks: list[tuple[int, float]] = field(default_factory=list)
    evaluations: int = 0
    settled: int = 0
    skipped: int = 0


def greedy_sweep(score: GroupScores, matroid: Matroid, initial,
                 bounds=None) -> tuple[list[frozenset[int]], np.ndarray, list[GreedyTrace]]:
    """The one greedy loop, run for ``len(initial)`` set functions at once.

    ``initial[i]`` is the value of function i at the empty set.
    ``score(members, current, candidates)`` returns a (candidates x members)
    table: entry [r, j] is the value of function ``members[j]`` at
    ``current | {candidates[r]}``. Each step groups the unfinished functions
    by their current set S, asks the matroid for the extensions of S once
    per group (unchecked: the loop built S from the matroid's own
    candidates) and scores them, candidates in ascending id order. Per
    function this makes the same picks as a greedy of its own (ties go to
    the smallest element id); its trace counts the empty set and every
    candidate. A step whose candidates all score NaN (or -inf) for some
    function raises ``ValueError``. Returns the sets, values and traces.

    Without ``bounds`` a group's candidates are scored with one ``score``
    call. ``bounds[i]``, if given, is an upper bound on every value of
    function i. A group of several candidates whose functions all sit at
    their bounds is settled from its first candidate: that one is scored
    alone, and if it reaches every member's bound it is a column maximum
    with the smallest id, so it is every member's pick, with gain 0. The
    other candidates are never scored; they still count in
    ``evaluations``, and ``skipped`` counts them. Otherwise one more call
    scores them, and the step picks from the two tables stacked. That is
    the pick of one call as long as each table holds the exact value
    wherever that can be its column's maximum and less than that maximum
    elsewhere, as exact values and ``sga._group_scores`` do.

    For H(S, tau) = tau - q, tau is such a bound: q, a sum of hinge terms
    max(tau - u, 0) >= 0 divided by alpha*n > 0, rounds to a float >= 0 or
    NaN, and tau - q <= tau rounds to a float <= tau, as rounding is
    monotone and tau is a float. A NaN never equals its bound.
    """
    values = np.array(initial, dtype=float)
    if bounds is not None:
        bounds = np.asarray(bounds, dtype=float)
    count = values.size
    selected: list[frozenset[int]] = [frozenset()] * count
    traces = [GreedyTrace(evaluations=1) for _ in range(count)]
    active = list(range(count))
    while active:
        groups: dict[frozenset, list[int]] = {}
        for i in active:
            groups.setdefault(selected[i], []).append(i)
        active = []
        for current, members in groups.items():
            candidates = sorted(matroid._extension_candidates(current))
            if not candidates:
                continue
            at = np.array(members)
            settle = (bounds is not None and len(candidates) > 1
                      and all(values[i] == bounds[i] for i in members))
            table = np.asarray(score(at, current, candidates[:1] if settle else candidates),
                               dtype=float)
            if settle and not (table[0] == bounds[at]).all():
                table = np.vstack([table, score(at, current, candidates[1:])])
            # NaN never wins, and argmax keeps the first (smallest id) maximum
            ranked = np.where(np.isnan(table), -np.inf, table)
            best = ranked.argmax(axis=0)
            for j, i in enumerate(members):
                value = ranked[best[j], j]
                if value == -np.inf:
                    raise ValueError(
                        f"greedy step from {sorted(current)}: no candidate has a "
                        f"comparable score; the scores of {candidates} are "
                        f"{table[:, j].tolist()} (NaN or -inf)")
                e = candidates[best[j]]
                traces[i].picks.append((e, float(value - values[i])))
                traces[i].evaluations += len(candidates)
                traces[i].settled += len(table) < len(candidates)
                traces[i].skipped += len(candidates) - len(table)
                selected[i] = current | {e}
                values[i] = value
            active.extend(members)
    return selected, values, traces


def greedy_maximize(objective_fn: SetFunction, matroid: Matroid) -> tuple[frozenset[int], GreedyTrace]:
    """Build a maximal independent set by repeated best-gain insertion.

    Ties are broken toward the smallest element id. Every call to
    ``objective_fn`` is counted in the trace.
    """
    def score(_members, current: frozenset, candidates: list) -> np.ndarray:
        return np.array([[objective_fn(current | {e})] for e in candidates], dtype=float)

    selected, _, traces = greedy_sweep(score, matroid, [objective_fn(frozenset())])
    return selected[0], traces[0]
