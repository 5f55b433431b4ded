"""Greedy maximization over a matroid.

The greedy loop keeps adding the candidate with the largest value gain until
no feasible extension remains, so the output is always a maximal independent
set. Negative gains are accepted; for monotone objectives they do not occur.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .matroid import Matroid

SetFunction = Callable[[frozenset], float]


@dataclass
class GreedyTrace:
    """Pick order with value gains, plus the number of oracle evaluations."""

    picks: list[tuple[int, float]] = field(default_factory=list)
    evaluations: int = 0


def greedy_maximize(objective_fn: SetFunction, matroid: Matroid) -> tuple[frozenset[int], GreedyTrace]:
    """Build a maximal independent set by repeated best-gain insertion.

    Ties are broken toward the smallest element id. Every call to
    ``objective_fn`` is counted in the trace.
    """
    trace = GreedyTrace()
    selected: frozenset[int] = frozenset()
    current = objective_fn(selected)
    trace.evaluations += 1
    while True:
        candidates = matroid.extension_candidates(selected)
        if not candidates:
            break
        best_element = -1
        best_value = -float("inf")
        for e in sorted(candidates):
            value = objective_fn(selected | {e})
            trace.evaluations += 1
            if value > best_value:
                best_value = value
                best_element = e
        trace.picks.append((best_element, best_value - current))
        selected = selected | {best_element}
        current = best_value
    return selected, trace
