"""The experiment scripts run end to end at tiny settings and leave
non-empty CSV files behind."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def data_rows(path):
    """Non-comment lines of a CSV file: the header and the data rows."""
    return [line for line in path.read_text().splitlines()
            if line and not line.startswith("#")]


@pytest.mark.parametrize("script,args,outputs", [
    ("bound_audit.py", ["--instances", "2", "--out", "{out}/audit.csv"],
     ["audit.csv"]),
    ("vehicle_sweep.py", ["--samples", "50", "--delta", "5", "--out", "{out}"],
     ["vehicle_alpha_table.csv", "vehicle_tau_curves.csv", "vehicle_histograms.csv"]),
    ("sensor_sweep.py", ["--samples", "50", "--no-verify", "--out", "{out}"],
     ["sensor_alpha_table.csv", "sensor_tau_curves.csv", "sensor_histograms.csv"]),
    ("sensor_sweep.py", ["--samples", "50", "--delta", "8", "--out", "{out}"],
     ["sensor_alpha_table.csv", "sensor_verify.json"]),
], ids=["bound-audit", "vehicle-sweep", "sensor-sweep", "sensor-sweep-verify"])
def test_script_runs(tmp_path, script, args, outputs):
    proc = run_script(script, *(a.format(out=tmp_path) for a in args))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in outputs:
        path = tmp_path / name
        if path.suffix == ".csv":
            assert len(data_rows(path)) >= 2, f"{name} has no data rows"
        else:
            assert path.stat().st_size > 0
