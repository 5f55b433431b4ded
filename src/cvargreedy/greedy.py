"""Greedy maximization over a matroid.

The greedy loop keeps adding the candidate with the largest value gain until
no feasible extension remains, so the output is always a maximal independent
set. Negative gains are accepted; for monotone objectives they do not occur.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Callable

import numpy as np

from .matroid import Matroid

# (members, current, candidates, floor) groups -> one table per group
GroupScores = Callable[[list[tuple]], list[np.ndarray]]


@dataclass
class GreedyTrace:
    """Pick order with value gains, plus the number of oracle evaluations."""

    picks: list[tuple[int, float]] = field(default_factory=list)
    evaluations: int = 0


def greedy_sweep(score: GroupScores, matroid: Matroid, initial, bounds=None,
                 margins=None, lazy_size: int = 0,
                 counts: dict | None = None) -> tuple[list[frozenset[int]], np.ndarray,
                                                      list[GreedyTrace]]:
    """The one greedy loop, run for ``len(initial)`` set functions at once.

    ``initial[i]`` is the value of function i at the empty set. Each step
    groups the unfinished functions by their current set S. The empty set's
    candidates are the whole ground set in ascending id order, as the
    matroid's blocks cover it and each has a capacity of at least 1; a
    group's candidates are then its parent's less the pick and, if the
    pick fills its block, less the rest of that block
    (``Matroid._next_candidates``), so they keep that order.
    ``score(groups)`` scores the groups of one call, a list of
    (members, current, candidates, floor) tuples, and returns one table per
    group: entry [r, j] of the (candidates x members) table is the value of
    function ``members[j]`` at ``current | {candidates[r]}``; floor is None
    but in the second call of a group that keeps gains (below). A step
    makes one call for all its groups, and at most one more for the groups
    whose rules leave candidates unscored, and takes each function's pick
    from one column maximum over the step. Per function this makes the same
    picks as a greedy of its own (ties go to the smallest element id); its
    trace counts the empty set and every candidate. The points of a group
    then join the groups of its set plus their picks, in the order of the
    first point to make each pick. A step whose candidates all score NaN (or
    -inf) for some function raises ``ValueError``, with the scores of that
    function's candidates from one more ``score`` call. Returns the sets,
    values and traces.

    By default every candidate of a group is scored in the first call. Two
    rules skip candidates that cannot be a pick. Their groups score some
    candidates first and maybe more in the second call, and take the largest
    value of the two tables at the smallest id. That is the pick of one
    call as long as each table holds the exact value wherever that can be
    the maximum of both, and less than that maximum elsewhere, as exact
    values and ``sga._batch_scores`` do. A skipped candidate still counts in
    ``evaluations``.

    Settle rule. ``bounds[i]``, if given, is an upper bound on every value
    of function i. A group of several candidates whose functions all sit at
    their bounds scores its first candidate alone. If that reaches every
    member's bound it is a column maximum with the smallest id, so it is
    every member's pick, with gain 0, and no other candidate is scored.
    Otherwise the second call scores the rest. For H(S, tau) = tau - q, tau
    is such a bound: q, a sum of hinge terms max(tau - u, 0) >= 0 divided
    by alpha*n > 0, rounds to a float >= 0 or NaN, and tau - q <= tau
    rounds to a float <= tau, as rounding is monotone and tau is a float.
    A NaN never equals its bound.

    Stale-bound rule (Minoux 1978). ``margins[i]``, if given, says that
    function i is monotone submodular up to rounding: for sets S' within S
    and e outside S, its value at S + e is at most its value at S plus
    value(S' + e) - value(S') plus ``margins[i]``, with value(S' + e) read
    as any upper bound on it. A group of at least ``lazy_size`` candidates
    then keeps gains: its floor in the second call is an array of one value
    per member, the member's best value of the first, below which the table
    need not be exact; and every entry of its table is at or above the
    exact value, an upper bound where it is not exact. The loop keeps each
    function's last gain table[r, j] - value(S') per candidate, from the
    first step of a group that keeps gains on. After that step an
    unsaturated group bounds every candidate by UB = min(bound, value(S) +
    gain + margin), or by its bound where no finite gain is kept (NaN marks
    none, as after a NaN or infinite value). The first call scores, per member,
    the candidate with the largest UB (the smallest id among equals); the
    second scores only the candidates whose UB exceeds some member's best
    value of the first call, or equals it at a smaller id than that best's.
    Every other candidate's value is below the member's best, or equal to
    it at a larger id, so it is no pick. Any other group takes the steps
    above. Candidate sets shrink along the loop, so the functions of a
    group below ``lazy_size`` stay below it, and their gains are not kept.
    ``counts``, if given, is the dict that gathers the sweep's work. Each
    step adds, summed over its points, the picks settled by the first call
    under "settled" and the candidates never scored under "skipped"; each
    group step of the stale-bound rule adds the candidates it skips under
    "stale", as the second call's rows are chosen.
    """
    counts = {} if counts is None else counts
    values = np.array(initial, dtype=float)
    if bounds is not None:
        bounds = np.asarray(bounds, dtype=float)
    if margins is not None:
        margins = np.asarray(margins, dtype=float)
    count = values.size
    selected: list[frozenset[int]] = [frozenset()] * count
    traces = [GreedyTrace() for _ in range(count)]
    evaluations = np.ones(count, dtype=np.int64)  # the empty set
    gains = None  # (ground x functions) last kept gain; NaN where there is none
    # each unfinished set: its extension candidates and the pieces of its points
    groups = ({frozenset(): (list(matroid.ground.elements), [np.arange(count)])}
              if count else {})
    while groups:
        step = []
        for current, (candidates, pieces) in groups.items():
            at = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            if candidates:
                step.append(_Group(current, at, candidates))
            else:
                for i in at.tolist():
                    selected[i] = current
        if not step:
            break
        # the step's columns: the points of its groups side by side
        widths = np.array([g.at.size for g in step])
        starts = np.cumsum(widths) - widths
        spans = list(zip(starts.tolist(), (starts + widths).tolist()))
        total = np.array([len(g.candidates) for g in step])
        at = np.concatenate([g.at for g in step])
        saturated = np.zeros(len(step), dtype=bool)
        if bounds is not None:
            saturated = (total > 1) & np.logical_and.reduceat(values[at] == bounds[at], starts)
        for g, full in zip(step, saturated.tolist()):
            g.keep = margins is not None and len(g.candidates) >= lazy_size
            if full:
                g.rows = np.arange(1)
            if g.keep and gains is None:
                gains = np.full((matroid.ground.size, count), np.nan)
            elif g.keep and not full:
                g.ub = gains[np.ix_(g.candidates, g.at)]  # no local: the step frees it
                g.ub += values[g.at]
                g.ub += margins[g.at]
                np.fmin(np.inf if bounds is None else bounds[g.at], g.ub, out=g.ub)
                top = np.zeros(len(g.candidates), dtype=bool)
                top[g.ub.argmax(axis=0)] = True
                g.rows = np.flatnonzero(top)  # not np.unique, which imports numpy.ma
        pick, best = _score(score, step, [g.rows for g in step], gains, values)
        short = [False] * len(step)
        if saturated.any():
            short = (saturated & ~np.logical_and.reduceat(best == bounds[at], starts)).tolist()
        again, rest, cols = [], [], []
        for k, (g, (a, b)) in enumerate(zip(step, spans)):
            if short[k]:
                more = np.arange(1, len(g.candidates))
            elif g.ub is not None:
                more = _needed(g.ub, best[a:b], pick[a:b], g.rows)
                g.ub = None
                counts["stale"] = (counts.get("stale", 0) + len(g.candidates)
                                   - len(g.rows) - len(more))
            else:
                continue
            if len(more):
                again.append(k)
                rest.append(more)
                cols.append(np.arange(a, b))
        if again:
            more, more_best = _score(score, [step[k] for k in again], rest, gains, values,
                                     [best[c] for c in cols])
            cols = np.concatenate(cols)
            take = (more_best > best[cols]) | ((more_best == best[cols]) & (more < pick[cols]))
            pick[cols] = np.where(take, more, pick[cols])
            best[cols] = np.where(take, more_best, best[cols])
        comparable = best > -np.inf  # NaN never wins
        if not comparable.all():
            c = int(comparable.argmin())
            k = int(np.searchsorted(starts, c, side="right")) - 1
            raise _incomparable(score, step[k], c - spans[k][0])
        scored = np.array([n if g.rows is None else len(g.rows)
                           for g, n in zip(step, total.tolist())])
        first = scored < total  # settled by the first call
        if again:
            scored[again] += [len(more) for more in rest]
            first[again] = False
        evaluations[at] += np.repeat(total, widths)
        counts["settled"] = counts.get("settled", 0) + int(first @ widths)
        counts["skipped"] = counts.get("skipped", 0) + int((total - scored) @ widths)
        ids = np.fromiter(chain.from_iterable(g.candidates for g in step), dtype=np.intp,
                          count=int(total.sum()))
        elements = ids[np.repeat(np.cumsum(total) - total, widths) + pick]
        for i, e, gain in zip(at.tolist(), elements.tolist(), (best - values[at]).tolist()):
            traces[i].picks.append((e, gain))
        values[at] = best
        groups = {}  # a point of group g that picked e joins the group of g's set + e
        for g, (a, b) in zip(step, spans):
            picked = elements[a:b]
            for e in dict.fromkeys(picked.tolist()):
                child = g.current | {e}
                if child not in groups:
                    groups[child] = (matroid._next_candidates(g.candidates, e, child), [])
                groups[child][1].append(g.at[picked == e])
    for trace, n in zip(traces, evaluations.tolist()):
        trace.evaluations = n
    return selected, values, traces


@dataclass(eq=False)
class _Group:
    """The points of one step at one set, and how the step scores them."""

    current: frozenset
    at: np.ndarray  # the points
    candidates: list
    rows: np.ndarray | None = None  # the candidates of the first call; None: all
    keep: bool = False  # keeps its gains
    ub: np.ndarray | None = None  # the stale bounds, until the second call


def _chosen(candidates: list, rows: np.ndarray | None) -> list:
    """The candidates of ``rows``; None stands for all of them."""
    return candidates if rows is None else [candidates[r] for r in rows.tolist()]


def _score(score: GroupScores, groups: list[_Group], rows: list, gains, values: np.ndarray,
           floors=None) -> tuple[np.ndarray, np.ndarray]:
    """Score ``rows[k]`` of each group's candidates in one ``score`` call,
    with ``floors[k]`` (default None) for each group that keeps gains, and
    keep those groups' gains (table minus the value before the step).
    Returns ``_first_max`` over the groups' columns side by side, its rows
    read as candidate indices."""
    calls = [(g.at, g.current, _chosen(g.candidates, r),
              floors[k] if g.keep and floors is not None else None)
             for k, (g, r) in enumerate(zip(groups, rows))]
    tables = []
    for g, r, table in zip(groups, rows, score(calls)):
        table = np.asarray(table, dtype=float)
        if g.keep:
            gain = table - values[g.at]
            gain[~np.isfinite(gain)] = np.nan
            gains[np.ix_(_chosen(g.candidates, r), g.at)] = gain
        tables.append(table)
    ends = list(accumulate(t.shape[1] for t in tables))  # the groups' columns
    table = tables[0]
    if len(tables) > 1:  # one column maximum: the tables padded to one height with
        # NaN, which is never a column's first maximum (a -inf pad would be
        # one in a column whose own rows are all NaN)
        table = np.full((max(map(len, tables)), ends[-1]), np.nan)
        for t, b in zip(tables, ends):
            table[:len(t), b - t.shape[1]:b] = t
    first, best = _first_max(table)
    for r, t, b in zip(rows, tables, ends):
        if r is not None:
            first[b - t.shape[1]:b] = r[first[b - t.shape[1]:b]]
    return first, best


def _incomparable(score: GroupScores, g: _Group, j: int) -> ValueError:
    """The error of a step in which member j of group g has no comparable score.

    Both rules send every candidate they left out to the second call once a
    column has no comparable value (its best is -inf, below every bound and
    every stale bound), so the step scored all of g's candidates for member
    j. They are scored once more, as in a first call, for the message."""
    [table] = score([(g.at, g.current, g.candidates, None)])
    return ValueError(
        f"greedy step from {sorted(g.current)}: no candidate has a "
        f"comparable score; the scores of {g.candidates} are "
        f"{np.asarray(table, dtype=float)[:, j].tolist()} (NaN or -inf)")


def _first_max(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the first row whose entry is the largest, and that entry;
    NaN never wins, and a column without a comparable value gets -inf. The
    only temporary as large as the table is a boolean one."""
    top = np.fmax.reduce(table, axis=0)  # NaN only where every entry is NaN
    first = (table == top).argmax(axis=0)
    value = table[first, np.arange(table.shape[1])]
    value[np.isnan(value)] = -np.inf
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
