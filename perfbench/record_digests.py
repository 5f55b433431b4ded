"""Record the data digests the benchmark compares each operation against.

    python3 perfbench/record_digests.py --seeds 0-25 [--workload NAME ...]

Runs one operation per workload and seed, checks it like a benchmark run
does, and stores the digest of its data sections in ``perfbench/digests.json``
(existing entries for other seeds are kept). Only record at a commit whose
outputs are the reference: later commits must reproduce them byte for byte.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from report import seed_list  # noqa: E402
from workloads import DIGESTS, WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 0-25")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    record = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    failures = 0
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            workload = WORKLOADS[name](seed)
            with tempfile.TemporaryDirectory(dir=work) as cwd:
                os.chdir(cwd)
                workload.setup()
                start = perf_counter()
                output = workload.operation()
                elapsed = perf_counter() - start
                problems = (workload.check(output) if output.exit_code == 0
                            else [f"exit code {output.exit_code}"])
                os.chdir(ROOT)
            if problems:
                failures += 1
                print(f"{name} seed {seed}: NOT recorded: {problems}", file=sys.stderr)
                continue
            record.setdefault(name, {})[str(seed)] = output.digest
            print(f"{name} seed {seed}: {output.digest[:16]} ({elapsed:.1f} s)", flush=True)
            DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
