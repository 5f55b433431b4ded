"""One operation of each benchmark workload reproduces its recorded data digest
and passes the workload's own output checks, so a change that moves any bit
of the CLI data sections or of the bound audit fails here, in seconds, and
not only in a full benchmark run. The audit replays four seeds: each draws
its own scenario batches, so together they exercise the pruned brute force
and the early stop of the exact curvature on 336 cases. The vehicle run
replays two seeds, which skip candidates by stale gains on different
picks. The solver's DEBUG work counts of each operation are pinned too:
they do not depend on the machine, and they move when a change does more
or less work for the same output."""
from __future__ import annotations

import logging
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# per operation, the sums of the ``cvargreedy`` DEBUG records: the greedy's
# (pairs scored, scored exactly, skipped, group scores below the screen's
# size rule, rows computed, hook calls, rows skipped by stale bounds, picks
# settled), and for the audit the brute force's (feasible sets, scored on
# the grid) and the exact curvature's (first-pass rows, second-pass rows)
WORK = {
    ("run-vehicle", 17): {"greedy": (54107, 1003, 65893, 34, 1386, 28, 1597, 23)},
    ("run-vehicle", 5): {"greedy": (45425, 1556, 74575, 42, 1758, 32, 1749, 27)},
    ("sweep-sensor", 2): {"greedy": (28892, 5308, 5028, 90, 1417, 29, 0, 212)},
    ("audit-synthetic", 0): {"greedy": (95574, 95574, 9353, 1817, 7211, 452, 0, 2572),
                             "brute force": (47058, 96), "curvature": (12311, 412)},
    ("audit-synthetic", 1): {"greedy": (95981, 95981, 9191, 1966, 7641, 452, 0, 2506),
                             "brute force": (47058, 100), "curvature": (12444, 609)},
    ("audit-synthetic", 2): {"greedy": (94729, 94729, 10352, 1871, 7070, 452, 0, 2745),
                             "brute force": (47058, 96), "curvature": (11534, 785)},
    ("audit-synthetic", 3): {"greedy": (95739, 95739, 9008, 1856, 7149, 452, 0, 2399),
                             "brute force": (47058, 101), "curvature": (11904, 711)},
}


def summed(records, prefix: str) -> tuple:
    """Argument by argument, the sums over the records whose message starts
    with ``prefix``."""
    return tuple(map(sum, zip(*(r.args for r in records if r.msg.startswith(prefix)))))


@pytest.mark.parametrize("name, seed", [("run-vehicle", 17), ("run-vehicle", 5),
                                        ("sweep-sensor", 2),
                                        *(("audit-synthetic", s) for s in range(4))])
def test_operation_reproduces_the_recorded_digest(monkeypatch, tmp_path, caplog, name, seed):
    monkeypatch.chdir(tmp_path)  # the CLI workloads write into the working directory
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    caplog.set_level(logging.DEBUG, logger="cvargreedy")
    caplog.clear()
    output = workload.operation()
    assert output.exit_code == 0
    assert workloads.recorded_digest(name, seed) == output.digest
    assert workload.check(output) == []
    records = caplog.records
    work = {"greedy": summed(records, "scored ")}
    if name == "audit-synthetic":
        work["brute force"] = summed(records, "brute force:")
        first, _, _, second, _ = summed(records, "exact curvature:")
        work["curvature"] = (first, second)
    assert work == WORK[name, seed]
