"""Tests of the benchmark harness itself, on tiny in-memory instances.

    python3 -m pytest -q perfbench/test_harness.py
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
from cvargreedy import risk, sga, synthetic  # noqa: E402
from workloads import AuditSynthetic, Chosen, Output, check_chosen  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "perf_counter", clock)
    tracer = tracing.Tracer()
    root = tracing.KEEP_DURATIONS  # the one span whose durations are kept

    def leaf():
        clock.now += 2.0

    def child():
        clock.now += 1.0
        tracer.call("leaf", leaf, (), {})
        clock.now += 0.5

    def parent():
        clock.now += 3.0
        tracer.call("child", child, (), {})
        tracer.call("child", child, (), {})
        clock.now += 4.0

    tracer.call(root, parent, (), {})
    layers = tracer.layers
    assert layers["leaf"].calls == 2 and layers["leaf"].self_s == 4.0
    assert layers["child"].total_s == 7.0 and layers["child"].self_s == 3.0
    assert layers[root].total_s == 14.0 and layers[root].self_s == 7.0
    assert tracer.durations == {root: [14.0]}
    # self times partition the root span
    assert sum(s.self_s for s in layers.values()) == layers[root].total_s


def test_distinct_counts_set_and_batch_pairs():
    objective = synthetic.random_instance(3, size=5)
    batch = objective.sample_scenarios(20, 1)
    other = objective.sample_scenarios(20, 2)
    same_seed = objective.sample_scenarios(20, 1)
    original = synthetic.RandomCoverageObjective.utilities
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        for subset, scenarios in [({0}, batch), ([0], batch), ({1}, batch),
                                  ({0, 1}, batch), ({0}, other), ({0}, same_seed)]:
            objective.utilities(subset, scenarios)  # untraced: not counted
        tracer.enabled = True
        for subset, scenarios in [({0}, batch), ([0], batch), ({1}, batch),
                                  ({0, 1}, batch), ({0}, other), ({0}, same_seed)]:
            objective.utilities(subset, scenarios)
        tracer.enabled = False
    finally:
        restore()
    snapshot = worker.layer_snapshot(tracer)
    assert snapshot["objective.utilities.calls"] == 6
    assert snapshot["objective.utilities.distinct"] == 4
    assert snapshot["objective.utilities.useful_ratio"] == pytest.approx(4 / 6)
    assert synthetic.RandomCoverageObjective.utilities is original  # wrapper removed


class TinyAudit(AuditSynthetic):
    name = "tiny-audit"
    instances = 3


class WrongH(TinyAudit):
    """Reports a chosen value that its own set does not reach."""

    def operation(self):
        output = super().operation()
        c = output.chosen[0]
        output.chosen[0] = Chosen(c.alpha, c.tau, c.h_value + 0.5, c.chosen_set, c.case,
                                  c.slack)
        return output


class Raises(TinyAudit):
    def operation(self):
        raise RuntimeError("solver crashed")


class ExitsTwo(TinyAudit):
    def operation(self):
        return Output(2)


def test_correct_outputs_pass_and_traced_counts_match_the_program(capsys):
    originals = (risk.auxiliary_value, sga.auxiliary_value, sga.run_sga)
    result = worker.run(TinyAudit(0), seconds=0.0, trace=True)
    text = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) >= {"objective.utilities.distinct", "trace_overhead_s",
                            "greedy.solve_s.p99", "cli.self_s"}
    assert metrics["risk.auxiliary_value.calls"] * TinyAudit.samples == \
        metrics["oracle_evaluations"]
    assert metrics["sga.run_sga.calls"] == TinyAudit.instances * len(TinyAudit.deltas)
    assert metrics["objective.utilities.distinct"] <= metrics["objective.utilities.calls"]
    assert "failed_share  0 (0/2)" in text
    assert (risk.auxiliary_value, sga.auxiliary_value, sga.run_sga) == originals  # restored


@pytest.mark.parametrize("workload", [WrongH(0), Raises(0), ExitsTwo(0)])
def test_wrong_or_crashing_operation_counts_as_failed(workload):
    result = worker.run(workload, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_digest_mismatch_counts_as_failed(monkeypatch):
    monkeypatch.setattr(worker, "recorded_digest", lambda name, seed: "0" * 64)
    result = worker.run(TinyAudit(0), seconds=0.0, trace=False)
    assert result["failed"] == 1


def test_negative_slack_fails_the_case():
    objective = synthetic.random_instance(0, size=4)
    scenarios = objective.sample_scenarios(30, 5)
    chosen = frozenset()
    h = risk.auxiliary_from_values([0.0] * 30, 0.0, 0.5)
    ok = Chosen(0.5, 0.0, h, chosen, slack=0.0)
    bad = Chosen(0.5, 0.0, h, chosen, slack=-1e-6)
    assert check_chosen(objective, scenarios, ok) == []
    assert any("slack" in p for p in check_chosen(objective, scenarios, bad))
