"""cvargreedy benchmark: one run of one workload.

    python3 perfbench/run.py --workload run-vehicle [--seed N] [--seconds 35] [--trace 0|1]

Run from the repository root. The workload runs in a fresh worker process
with the library imported from ``src/``, one BLAS thread and
``CVARGREEDY_WORKERS`` unset, so both sides of a comparison run alike
whatever the caller's shell sets. The worker's scratch files live in a
temporary directory under ``.perfbench_work/`` that is removed afterwards.
The last stdout line is the result object; see ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
DEFAULT_SEEDS = {"run-vehicle": 17, "sweep-sensor": 2, "audit-synthetic": 0}
BLAS_THREADS = "1"
# The worker may overrun --seconds by its last operation, and a traced run must
# finish two operations whatever the time; the margin covers that up to
# operations of about 50 s, while a 35 s run still ends within 170 s.
TIMEOUT_MARGIN_S = 100


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CVARGREEDY_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring time; the operation in progress never overruns it "
                             "unless it is the first")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cvargreedy" / "__init__.py").is_file():
        print(f"perfbench: no cvargreedy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as cwd:
        cmd = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        timeout = 2 * args.seconds + TIMEOUT_MARGIN_S
        try:
            done = subprocess.run(cmd, cwd=cwd, env=worker_env(), stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"perfbench: worker exceeded {timeout:g} s", file=sys.stderr)
            return 3
    if done.returncode != 0:
        print(f"perfbench: worker exited with {done.returncode}", file=sys.stderr)
        return done.returncode if done.returncode > 0 else 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
