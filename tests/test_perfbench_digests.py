"""One operation of each benchmark workload reproduces its recorded data digest
and passes the workload's own output checks, so a change that moves any bit
of the CLI data sections or of the bound audit fails here, in seconds, and
not only in a full benchmark run. The audit replays four seeds: each draws
its own scenario batches, so together they exercise the pruned brute force
and the early stop of the exact curvature on 336 cases. The vehicle run
replays two seeds, which skip candidates by stale gains on different
picks."""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name, seed", [("run-vehicle", 17), ("run-vehicle", 5),
                                        ("sweep-sensor", 2),
                                        *(("audit-synthetic", s) for s in range(4))])
def test_operation_reproduces_the_recorded_digest(monkeypatch, tmp_path, name, seed):
    monkeypatch.chdir(tmp_path)  # the CLI workloads write into the working directory
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    output = workload.operation()
    assert output.exit_code == 0
    assert workloads.recorded_digest(name, seed) == output.digest
    assert workload.check(output) == []
