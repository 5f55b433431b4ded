"""Per-layer spans recorded from outside the library.

``instrument`` swaps each traced library function (or method) for a wrapper
that times the call while a ``Tracer`` is enabled and calls straight through
otherwise. Nothing in ``src/`` changes: the wrappers live here and are
installed by rebinding the names the library modules look up at call time.

A span's self time is its duration minus the durations of the spans it
directly caused, so nested layers (``cli.main`` -> ``sga.run_sga`` ->
``greedy.greedy_maximize`` -> ``risk.auxiliary_value`` ->
``objective.utilities``) each get only the time spent in their own code.
"""
from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# The one span whose every duration is kept, for the solve-time percentiles.
KEEP_DURATIONS = "greedy.greedy_maximize"


class LayerStats:
    """Calls, inclusive time and self time of one span name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Aggregated spans of one operation; ``reset`` between operations.

    Spans are folded into per-name totals as they close instead of being kept
    one by one: a single vehicle run closes about a million of them. Only
    ``KEEP_DURATIONS`` keeps each duration, for percentiles.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._children: list[float] = []  # child time of each open span

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` inside a span called ``name``."""
        children = self._children
        children.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            covered = children.pop()
            stats = self.layers[name]
            stats.calls += 1
            stats.total_s += duration
            stats.self_s += duration - covered
            if children:
                children[-1] += duration
            if name == KEEP_DURATIONS:
                self.durations[name].append(duration)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), the one quartile definition of the whole benchmark."""
    return percentile(values, 25), statistics.median(values), percentile(values, 75)


def utilities_key(args, kwargs):
    """(objective, batch, set) identity of an ``objective.utilities`` call.

    The batch is named by its seed and size, so two batches drawn from the
    same seed count as one, as they would for a cache keyed by content.
    """
    objective, *rest = args
    rest += [kwargs[k] for k in ("subset", "scenarios") if k in kwargs]
    subset, scenarios = rest
    return (id(objective), scenarios.seed, len(scenarios), frozenset(subset))


def count_picks(tracer: Tracer, result) -> None:
    tracer.counts["greedy.picks"] += len(result[1].picks)


def _wrap(tracer: Tracer, name: str, fn, key=None, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if key is not None:
            tracer.distinct[name].add(key(args, kwargs))
        result = tracer.call(name, fn, args, kwargs)
        if on_result is not None:
            on_result(tracer, result)
        return result
    return wrapper


def _targets():
    """(span name, owner, attribute, distinct key, result hook) per traced entry point."""
    from cvargreedy import cli, greedy, matroid, problems, risk, sga, synthetic
    problem_classes = (problems.VehicleAssignment, problems.SensorCoverage,
                       synthetic.RandomCoverageObjective)
    rows = [("cli.main", cli, "main", None, None),
            ("problems.load_instance", problems, "load_instance", None, None)]
    for cls in problem_classes:
        rows.append(("objective.utilities", cls, "utilities", utilities_key, None))
        rows.append(("objective.sample_scenarios", cls, "sample_scenarios", None, None))
    rows += [
        ("risk.auxiliary_value", risk, "auxiliary_value", None, None),
        ("risk.auxiliary_from_values", risk, "auxiliary_from_values", None, None),
        ("matroid.check_subset", matroid.GroundSet, "check_subset", None, None),
        ("matroid.extension_candidates", matroid.Matroid, "extension_candidates",
         None, None),
        ("matroid.is_independent", matroid.UniformMatroid, "is_independent", None, None),
        ("matroid.is_independent", matroid.PartitionMatroid, "is_independent",
         None, None),
        ("greedy.greedy_maximize", greedy, "greedy_maximize", None, count_picks),
    ]
    for fn in ("run_sga", "alpha_sweep", "auxiliary_curvature", "brute_force_opt"):
        rows.append((f"sga.{fn}", sga, fn, None, None))
    return rows


def instrument(tracer: Tracer):
    """Install span wrappers around the traced entry points; returns an undo callable.

    A module-level function is rebound in every ``cvargreedy`` module that
    imported it by name, so calls through ``from .risk import auxiliary_value``
    are traced too. A method is replaced on the class of its MRO that defines
    it, once even when several problem classes share it. An entry point the
    library no longer has is reported on stderr and its metrics read zero.
    """
    undo = []
    for name, owner, attr, key, on_result in _targets():
        if isinstance(owner, type):
            holders = [next((k for k in owner.__mro__ if attr in k.__dict__), None)]
            original = holders[0].__dict__[attr] if holders[0] else None
        else:
            original = getattr(owner, attr, None)
            holders = [mod for mod_name, mod in list(sys.modules.items())
                       if mod_name.split(".")[0] == "cvargreedy"
                       and getattr(mod, attr, None) is original]
        if original is None:
            print(f"perfbench: cannot trace {name}: {owner.__name__}.{attr} is gone",
                  file=sys.stderr)
            continue
        wrapper = _wrap(tracer, name, original, key, on_result)
        for holder in holders:
            if any(h is holder and a == attr for h, a, _ in undo):
                continue  # shared by several problem classes; wrapped already
            setattr(holder, attr, wrapper)
            undo.append((holder, attr, original))

    def restore() -> None:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
    return restore
