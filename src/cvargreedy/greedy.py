"""Greedy maximization over a matroid.

The greedy loop keeps adding the candidate with the largest value gain until
no feasible extension remains, so the output is always a maximal independent
set. Negative gains are accepted; for monotone objectives they do not occur.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .matroid import Matroid

SetFunction = Callable[[frozenset], float]
GroupScores = Callable[..., np.ndarray | tuple[np.ndarray, np.ndarray]]


@dataclass
class GreedyTrace:
    """Pick order with value gains, plus the number of oracle evaluations.

    ``settled`` counts the steps settled by their group's first score call
    (see ``greedy_sweep``), and ``skipped`` the evaluations whose value was
    never computed."""

    picks: list[tuple[int, float]] = field(default_factory=list)
    evaluations: int = 0
    settled: int = 0
    skipped: int = 0


def greedy_sweep(score: GroupScores, matroid: Matroid, initial, bounds=None,
                 margins=None, lazy_size: int = 0,
                 counts: dict | None = None) -> tuple[list[frozenset[int]], np.ndarray,
                                                      list[GreedyTrace]]:
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

    By default a group's candidates are scored with one ``score`` call.
    Two rules skip candidates that cannot be a pick. Their steps score some
    candidates first and maybe more in a second call, and take the largest
    value of the two tables at the smallest id. That is the pick of one
    call as long as each table holds the exact value wherever that can be
    the maximum of both, and less than that maximum elsewhere, as exact
    values and ``sga._group_scores`` do. A skipped candidate still counts in
    ``evaluations``; ``skipped`` counts it, and ``settled`` counts the steps
    that the first call settled.

    Settle rule. ``bounds[i]``, if given, is an upper bound on every value
    of function i. A group of several candidates whose functions all sit at
    their bounds scores its first candidate alone. If that reaches every
    member's bound it is a column maximum with the smallest id, so it is
    every member's pick, with gain 0, and no other candidate is scored.
    Otherwise one more call scores the rest. For H(S, tau) = tau - q, tau
    is such a bound: q, a sum of hinge terms max(tau - u, 0) >= 0 divided
    by alpha*n > 0, rounds to a float >= 0 or NaN, and tau - q <= tau
    rounds to a float <= tau, as rounding is monotone and tau is a float.
    A NaN never equals its bound.

    Stale-bound rule (Minoux 1978). ``margins[i]``, if given, says that
    function i is monotone submodular up to rounding: for sets S' within S
    and e outside S, its value at S + e is at most its value at S plus
    value(S' + e) - value(S') plus ``margins[i]``, with value(S' + e) read
    as any upper bound on it. A group of at least ``lazy_size`` candidates
    then calls ``score(members, current, candidates, floor)``, which
    returns (table, upper), arrays the loop may overwrite: upper[r, j]
    bounds the exact value of table[r, j] from above, and the table need
    not be exact where that value lies below ``floor[j]``, a value the
    group already holds. The loop keeps each function's last gain
    upper[r, j] - value(S') per candidate. An unsaturated group with a finite kept gain bounds every
    candidate by UB = min(bound, value(S) + gain + margin), or by its bound
    where no gain is kept. The first call scores, per member, the
    candidate with the largest UB (the smallest id among equals); the
    second scores only the candidates whose UB exceeds some member's best
    value of the first call, or equals it at a smaller id than that best's.
    Every other candidate's value is below the member's best, or equal to
    it at a larger id, so it is no pick. Any other group takes the steps
    above. Candidate sets shrink along the loop, so the functions of a
    group below ``lazy_size`` stay below it, and their gains are not kept.
    ``counts``, if given, adds the candidates skipped by stale bounds, once
    per group step, under "stale".
    """
    values = np.array(initial, dtype=float)
    if bounds is not None:
        bounds = np.asarray(bounds, dtype=float)
    if margins is not None:
        margins = np.asarray(margins, dtype=float)
    count = values.size
    selected: list[frozenset[int]] = [frozenset()] * count
    traces = [GreedyTrace(evaluations=1) for _ in range(count)]
    gains = None  # (ground x functions) last kept gain; NaN where there is none
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
            keep = margins is not None and len(candidates) >= lazy_size
            saturated = (bounds is not None and len(candidates) > 1
                         and all(values[i] == bounds[i] for i in members))
            ub = None
            if keep and gains is None:
                gains = np.full((matroid.ground.size, count), np.nan)
            elif keep and not saturated:
                ub = gains[np.ix_(candidates, at)]
                if np.isnan(ub).all():
                    ub = None
            lazy = ub is not None
            if saturated:
                rows = np.arange(1)
            elif lazy:
                ub += values[at]
                ub += margins[at]
                np.fmin(np.inf if bounds is None else bounds[at], ub, out=ub)
                top = np.zeros(len(candidates), dtype=bool)
                top[ub.argmax(axis=0)] = True
                rows = np.flatnonzero(top)  # not np.unique, which imports numpy.ma
            else:
                rows = np.arange(len(candidates))
            parts = [(rows, *_call(score, at, current, candidates, rows, keep))]
            pick, best = _first_max(parts[0][1])
            if lazy:  # else rows are 0, 1, ..., as pick is
                pick = rows[pick]
            rest = ()
            if saturated and not (best == bounds[at]).all():
                rest = np.arange(1, len(candidates))
            elif lazy:
                rest = _needed(ub, best, pick, rows)
                del ub
            settled = not len(rest) and len(rows) < len(candidates)
            if len(rest):
                parts.append((rest, *_call(score, at, current, candidates, rest, keep, best)))
                more, more_best = _first_max(parts[1][1])
                more = rest[more]
                take = (more_best > best) | ((more_best == best) & (more < pick))
                pick, best = np.where(take, more, pick), np.where(take, more_best, best)
            skipped = len(candidates) - len(rows) - len(rest)
            if lazy and counts is not None:
                counts["stale"] = counts.get("stale", 0) + skipped
            before = values[at] if keep else None
            pick, picked = pick.tolist(), best.tolist()
            for j, i in enumerate(members):
                if not picked[j] > -np.inf:  # NaN never wins
                    scored = sorted((r, table[k, j]) for rows, table, _ in parts
                                    for k, r in enumerate(rows))
                    raise ValueError(
                        f"greedy step from {sorted(current)}: no candidate has a "
                        f"comparable score; the scores of "
                        f"{[candidates[r] for r, _ in scored]} are "
                        f"{[float(v) for _, v in scored]} (NaN or -inf)")
                e = candidates[pick[j]]
                traces[i].picks.append((e, float(picked[j] - values[i])))
                traces[i].evaluations += len(candidates)
                traces[i].settled += settled
                traces[i].skipped += skipped
                selected[i] = current | {e}
                values[i] = picked[j]
            for rows, _, upper in parts if keep else ():
                # the gains, in the upper ends, which the loop owns
                upper -= before
                upper[~np.isfinite(upper)] = np.nan
                gains[np.ix_([candidates[r] for r in rows.tolist()], at)] = upper
            del parts  # free the group's arrays before the next group's calls
            active.extend(members)
    return selected, values, traces


def _call(score: GroupScores, members: np.ndarray, current: frozenset, candidates: list,
          rows, keep: bool, floor=None) -> tuple[np.ndarray, np.ndarray | None]:
    """The table of ``candidates[rows]``, and with ``keep`` its upper ends
    (the floor defaults to -inf), else None."""
    picked = (candidates if len(rows) == len(candidates)
              else [candidates[r] for r in rows.tolist()])
    if not keep:
        return np.asarray(score(members, current, picked), dtype=float), None
    if floor is None:
        floor = np.full(members.size, -np.inf)
    table, upper = score(members, current, picked, floor)
    return np.asarray(table, dtype=float), np.asarray(upper, dtype=float)


def _first_max(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the first row whose entry is the largest, and that entry;
    NaN never wins, and a column without a comparable value gets -inf."""
    cols = np.arange(table.shape[1])
    first = table.argmax(axis=0)
    value = table[first, cols]
    if math.isnan(np.add.reduce(value)):  # argmax takes NaN for the largest
        table = np.where(np.isnan(table), -np.inf, table)
        first = table.argmax(axis=0)
        value = table[first, cols]
    return first, value


def _needed(ub: np.ndarray, best: np.ndarray, lead: np.ndarray,
            scored: np.ndarray) -> np.ndarray:
    """The rows of ``ub`` outside ``scored`` that can still be a pick: in some
    column j their bound exceeds ``best[j]``, or equals it at a smaller row
    than ``lead[j]``, the row that holds it."""
    need = ub > best
    need |= (ub == best) & (np.arange(len(ub))[:, None] < lead)
    need[scored] = False
    return np.flatnonzero(need.any(axis=1))


def greedy_maximize(objective_fn: SetFunction, matroid: Matroid) -> tuple[frozenset[int], GreedyTrace]:
    """Build a maximal independent set by repeated best-gain insertion.

    Ties are broken toward the smallest element id. Every call to
    ``objective_fn`` is counted in the trace.
    """
    def score(_members, current: frozenset, candidates: list) -> np.ndarray:
        return np.array([[objective_fn(current | {e})] for e in candidates], dtype=float)

    selected, _, traces = greedy_sweep(score, matroid, [objective_fn(frozenset())])
    return selected[0], traces[0]
