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
    """Pick order with value gains, plus the number of oracle evaluations."""

    picks: list[tuple[int, float]] = field(default_factory=list)
    evaluations: int = 0


def greedy_sweep(score: GroupScores, matroid: Matroid,
                 initial) -> tuple[list[frozenset[int]], np.ndarray, list[GreedyTrace]]:
    """The one greedy loop, run for ``len(initial)`` set functions at once.

    ``initial[i]`` is the value of function i at the empty set.
    ``score(members, current, candidates)`` returns a (candidates x members)
    table: entry [r, j] is the value of function ``members[j]`` at
    ``current | {candidates[r]}``. Each step groups the unfinished functions
    by their current set S, asks the matroid for the extensions of S once
    per group and scores them all with one ``score`` call, candidates in
    ascending id order. Per function this makes the same picks as a greedy
    of its own (ties go to the smallest element id); its trace counts the
    empty set and every candidate. A step whose candidates all score NaN
    (or -inf) for some function raises ``ValueError``. Returns the sets,
    values and traces.
    """
    values = np.array(initial, dtype=float)
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
            candidates = sorted(matroid.extension_candidates(current))
            if not candidates:
                continue
            table = np.asarray(score(np.array(members), current, candidates), dtype=float)
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
