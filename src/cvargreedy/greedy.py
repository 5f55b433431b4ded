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
GroupScores = Callable[[np.ndarray], Callable[[frozenset], np.ndarray]]


@dataclass
class GreedyTrace:
    """Pick order with value gains, plus the number of oracle evaluations."""

    picks: list[tuple[int, float]] = field(default_factory=list)
    evaluations: int = 0


def greedy_sweep(score: GroupScores, matroid: Matroid,
                 count: int) -> tuple[list[frozenset[int]], np.ndarray, list[GreedyTrace]]:
    """The one greedy loop, run for ``count`` set functions at once.

    ``score(members)`` returns a scorer mapping a set S to the values at S of
    the functions numbered ``members``. Each step groups the unfinished
    functions by their current set S, asks the matroid for the extensions of
    S once per group, builds one scorer per group and scores each S + e once
    for the whole group. Per function this makes the same picks as a greedy
    of its own (ties go to the smallest element id); its trace counts the
    empty set and every candidate. Returns the sets, values and traces.
    """
    selected: list[frozenset[int]] = [frozenset()] * count
    values = np.array(score(np.arange(count))(frozenset()), dtype=float)
    traces = [GreedyTrace(evaluations=1) for _ in range(count)]
    active = list(range(count))
    while active:
        groups: dict[frozenset, list[int]] = {}
        for i in active:
            groups.setdefault(selected[i], []).append(i)
        active = []
        for current, members in groups.items():
            candidates = matroid.extension_candidates(current)
            if not candidates:
                continue
            at = score(np.array(members))
            best_value = np.full(len(members), -np.inf)
            best_element = np.full(len(members), -1)
            for e in sorted(candidates):
                value = at(current | {e})
                better = value > best_value
                best_value[better] = value[better]
                best_element[better] = e
            for j, i in enumerate(members):
                e = int(best_element[j])
                traces[i].picks.append((e, float(best_value[j] - values[i])))
                traces[i].evaluations += len(candidates)
                selected[i] = current | {e}
                values[i] = best_value[j]
            active.extend(members)
    return selected, values, traces


def greedy_maximize(objective_fn: SetFunction, matroid: Matroid) -> tuple[frozenset[int], GreedyTrace]:
    """Build a maximal independent set by repeated best-gain insertion.

    Ties are broken toward the smallest element id. Every call to
    ``objective_fn`` is counted in the trace.
    """
    def one(subset: frozenset) -> np.ndarray:
        return np.array([objective_fn(subset)], dtype=float)

    selected, _, traces = greedy_sweep(lambda _members: one, matroid, 1)
    return selected[0], traces[0]
