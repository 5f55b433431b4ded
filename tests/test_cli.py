"""End-to-end command line checks in temporary directories: instance files,
solver outputs, manifests, reproducibility and exit codes."""
from __future__ import annotations

import json

import pytest

from cvargreedy import (SgaConfig, __version__, approximation_bound,
                        auxiliary_curvature, brute_force_opt, load_instance)
from cvargreedy.cli import main
from cvargreedy.problems import SensorCoverage, VehicleAssignment


def read_json(path):
    return json.loads(path.read_text())


def data_section(path):
    """File content with the whole manifest block stripped."""
    if path.suffix == ".json":
        doc = read_json(path)
        doc.pop("manifest")
        return doc
    return [line for line in path.read_text().splitlines()
            if not line.startswith("# ")]


def minus_timestamp(path):
    """Full file content with only the manifest timestamp removed."""
    if path.suffix == ".json":
        doc = read_json(path)
        doc["manifest"].pop("timestamp")
        return doc
    return [line for line in path.read_text().splitlines()
            if not line.startswith("# timestamp")]


def gen_vehicle(tmp_path, name="veh.json", vehicles=2, demands=2, seed=5):
    path = tmp_path / name
    code = main(["gen", "vehicle", "--vehicles", str(vehicles),
                 "--demands", str(demands), "--seed", str(seed),
                 "--out", str(path)])
    assert code == 0
    return path


def gen_sensor(tmp_path, name="sen.json", seed=3):
    path = tmp_path / name
    code = main(["gen", "sensor", "--candidates", "5", "--select", "2",
                 "--rows", "6", "--cols", "6", "--seed", str(seed),
                 "--out", str(path)])
    assert code == 0
    return path


# ------------------------------------------------------------------- gen

def test_gen_vehicle(tmp_path, capsys):
    path = gen_vehicle(tmp_path)
    out = capsys.readouterr().out
    assert "vehicle instance" in out and "partition" in out
    doc = read_json(path)
    assert doc["problem"] == "vehicle"
    assert doc["manifest"]["command"].startswith("cvargreedy gen vehicle")
    assert len(doc["manifest"]["config_hash"]) == 16
    assert doc["manifest"]["version"] == __version__
    assert doc["manifest"]["instance_seed"] == 5
    instance = load_instance(doc)
    assert instance.ground.size == 4
    for side in ("inf", "nan", "0"):
        code = main(["gen", "vehicle", "--side", side,
                     "--out", str(tmp_path / "bad.json")])
        assert code == 2
        assert "square side" in capsys.readouterr().err
    assert not (tmp_path / "bad.json").exists()


def test_gen_sensor_random_grid(tmp_path, capsys):
    doc = read_json(gen_sensor(tmp_path))
    assert doc["problem"] == "sensor"
    assert len(doc["grid"]) == 6
    assert len(doc["sensor_cells"]) == 5
    assert load_instance(doc).matroid.k == 2
    for density in ("nan", "-0.1", "1.5"):
        code = main(["gen", "sensor", "--obstacle-density", density,
                     "--out", str(tmp_path / "bad.json")])
        assert code == 2
        assert "obstacle density" in capsys.readouterr().err
    assert not (tmp_path / "bad.json").exists()


def test_gen_sensor_from_grid_file(tmp_path):
    grid_file = tmp_path / "grid.txt"
    grid_file.write_text("0010\n0000\n1001\n")
    path = tmp_path / "sen.json"
    code = main(["gen", "sensor", "--candidates", "3", "--select", "2",
                 "--grid", str(grid_file), "--seed", "1", "--out", str(path)])
    assert code == 0
    doc = read_json(path)
    assert doc["grid"] == ["0010", "0000", "1001"]
    assert doc["free_cell_count"] == 9


def test_gen_is_reproducible(tmp_path):
    # identical flags, same target: whole file identical minus the timestamp
    path = gen_vehicle(tmp_path, "a.json")
    first = minus_timestamp(path)
    gen_vehicle(tmp_path, "a.json")
    assert minus_timestamp(path) == first
    # different target path: the instance payload still matches exactly
    other = gen_vehicle(tmp_path, "b.json")
    assert data_section(other) == data_section(path)


# ------------------------------------------------------------------- run

def run_flags(instance, out, extra=()):
    return ["run", str(instance), "--alpha", "0.5", "--gamma", "20",
            "--delta", "2", "--samples", "50", "--seed", "7",
            "--out", str(out), *extra]


def test_run_outputs(tmp_path, capsys):
    instance = gen_vehicle(tmp_path)
    code = main(run_flags(instance, tmp_path / "res"))
    assert code == 0
    out = capsys.readouterr().out
    assert "risk-averse run" in out
    doc = read_json(tmp_path / "res.json")
    assert doc["config"]["alpha"] == 0.5
    assert doc["risk_label"] == "risk-averse"
    assert doc["instance"]["problem"] == "vehicle"
    assert len(doc["result"]["sweep"]) == 11
    assert doc["result"]["chosen_set"] == sorted(doc["result"]["chosen_set"])
    assert doc["bound"]["multiplicative"] <= 1.0
    curve = (tmp_path / "res_tau_curve.csv").read_text().splitlines()
    assert curve[5] == "tau,h_value,selected_set"
    assert len(curve) == 5 + 1 + 11
    assert curve[0].startswith("# command: cvargreedy run")


def test_run_reproducible(tmp_path):
    instance = gen_vehicle(tmp_path)
    assert main(run_flags(instance, tmp_path / "a")) == 0
    assert main(run_flags(instance, tmp_path / "b")) == 0
    assert data_section(tmp_path / "a.json") == data_section(tmp_path / "b.json")
    assert (data_section(tmp_path / "a_tau_curve.csv")
            == data_section(tmp_path / "b_tau_curve.csv"))


def test_vacuous_bound_is_logged_outside_the_data(tmp_path, capsys, caplog):
    instance = gen_vehicle(tmp_path)
    assert main(run_flags(instance, tmp_path / "v")) == 0
    assert [(r.name, r.levelname) for r in caplog.records] == [("cvargreedy", "WARNING")]
    assert caplog.messages[0].startswith(
        "curvature 1: the certified bound is vacuous at alpha 0.5")
    assert "certified bound" not in capsys.readouterr().out
    assert read_json(tmp_path / "v.json")["bound"]["curvature"] == 1.0
    # at alpha 1 the additive term is 0: the bound is not vacuous
    caplog.clear()
    assert main([*run_flags(instance, tmp_path / "n"), "--alpha", "1"]) == 0
    assert caplog.records == []


def test_gamma_below_a_sampled_utility_is_logged(tmp_path, capsys, caplog):
    instance = gen_sensor(tmp_path)
    flags = ["--alpha", "0.5", "--delta", "1", "--samples", "30"]
    assert main(["run", str(instance), *flags, "--gamma", "1",
                 "--out", str(tmp_path / "low")]) == 0
    low = [r for r in caplog.records if r.getMessage().startswith("gamma 1 is below")]
    assert [(r.name, r.levelname) for r in low] == [("cvargreedy", "WARNING")]
    top = float(low[0].getMessage().split("utility ")[1].split(" ")[0])
    result = read_json(tmp_path / "low.json")["result"]
    assert top > 1 and result["chosen_set"]
    assert "below the largest" not in capsys.readouterr().out
    assert sorted(read_json(tmp_path / "low.json")) == [
        "bound", "config", "instance", "manifest", "result", "risk_label"]
    # the default gamma, the free cell count, bounds every utility
    caplog.clear()
    assert main(["run", str(instance), *flags, "--out", str(tmp_path / "hint")]) == 0
    assert not [m for m in caplog.messages if m.startswith("gamma")]


def test_run_risk_neutral_label(tmp_path, capsys):
    instance = gen_sensor(tmp_path)
    code = main(["run", str(instance), "--alpha", "1", "--delta", "4",
                 "--samples", "30", "--out", str(tmp_path / "rn")])
    assert code == 0
    assert "risk-neutral run" in capsys.readouterr().out
    assert read_json(tmp_path / "rn.json")["risk_label"] == "risk-neutral"


def test_run_with_verification(tmp_path, capsys):
    instance = gen_sensor(tmp_path)
    code = main(["run", str(instance), "--alpha", "0.5", "--delta", "4",
                 "--samples", "40", "--verify", "--out", str(tmp_path / "v")])
    assert code == 0
    assert "guarantee: PASS" in capsys.readouterr().out
    block = read_json(tmp_path / "v.json")["verification"]
    assert block["passed"] is True
    assert block["slack"] >= -1e-9
    assert block["curvature_method"] == "exact_matroid_enumeration"
    assert block["grid_gap"] >= -1e-9


def test_run_rejects_oversized_grid(tmp_path, capsys, monkeypatch):
    instance = gen_vehicle(tmp_path)
    monkeypatch.setattr(SgaConfig, "tau_grid",
                        lambda self: pytest.fail("the tau grid was built"))
    code = main(["run", str(instance), "--alpha", "0.5", "--delta", "1e-9",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "points, more than the limit of 1000000" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_run_verify_refuses_large_ground(tmp_path, capsys):
    instance = gen_vehicle(tmp_path, vehicles=5, demands=4)
    code = main(run_flags(instance, tmp_path / "big", extra=["--verify"]))
    assert code == 2
    err = capsys.readouterr().err
    assert "20 elements" in err and "cap" in err


# ------------------------------------------------------------------ sweep

def test_sweep_outputs(tmp_path, capsys, caplog):
    instance = gen_sensor(tmp_path)
    code = main(["sweep", str(instance), "--alphas", "0.2,1",
                 "--gamma", "20", "--delta", "4", "--samples", "40",
                 "--eval-samples", "60", "--bins", "5",
                 "--out", str(tmp_path / "sw")])
    assert code == 0
    out = capsys.readouterr().out
    assert "alpha 0.2 (risk-averse)" in out
    assert "alpha 1 (risk-neutral)" in out
    # one log line per risk level whose bound is vacuous, and one per chosen
    # set with a sampled utility above gamma
    assert caplog.messages == [
        "curvature 1: the certified bound is vacuous at alpha 0.2 "
        "(additive term 40)",
        "gamma 20 is below the largest sampled utility 23 of the chosen set at "
        "alpha 1: it does not bound the utility, so the certified bound does not hold"]
    table = (tmp_path / "sw_alpha_table.csv").read_text().splitlines()
    assert table[5].startswith("alpha,h_value,tau,")
    assert len(table) == 5 + 1 + 2
    curves = data_section(tmp_path / "sw_tau_curves.csv")
    assert len(curves) == 1 + 2 * 6
    hist = data_section(tmp_path / "sw_histograms.csv")
    assert len(hist) == 1 + 2 * 5


def test_sweep_rejects_zero_eval_samples(tmp_path, capsys):
    instance = gen_sensor(tmp_path)
    code = main(["sweep", str(instance), "--alphas", "0.5", "--delta", "4",
                 "--samples", "20", "--eval-samples", "0",
                 "--out", str(tmp_path / "sw")])
    assert code == 2
    assert "sample count" in capsys.readouterr().err


def test_sweep_reproducible(tmp_path):
    instance = gen_sensor(tmp_path)
    flags = ["sweep", str(instance), "--alphas", "0.3,1", "--gamma", "12",
             "--delta", "3", "--samples", "30", "--bins", "4"]
    assert main([*flags, "--out", str(tmp_path / "a")]) == 0
    assert main([*flags, "--out", str(tmp_path / "b")]) == 0
    for suffix in ("alpha_table", "tau_curves", "histograms"):
        assert (data_section(tmp_path / f"a_{suffix}.csv")
                == data_section(tmp_path / f"b_{suffix}.csv"))


# ----------------------------------------------------------------- verify

def test_verify_command(tmp_path, capsys):
    instance = gen_sensor(tmp_path)
    report = tmp_path / "report.json"
    code = main(["verify", str(instance), "--alpha", "0.4", "--delta", "4",
                 "--samples", "40", "--out", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "guarantee: PASS" in out
    assert "certified lower bound" in out
    doc = read_json(report)
    assert doc["verification"]["passed"] is True
    assert doc["config"]["alpha"] == 0.4


def test_verification_bound_uses_grid_free_optimum(tmp_path):
    # the certified bound is anchored at the grid-free optimum cvar_star (the
    # paper's OPT), not at the grid optimum h_star
    instance = gen_sensor(tmp_path)
    report = tmp_path / "report.json"
    assert main(["verify", str(instance), "--alpha", "0.3", "--delta", "5",
                 "--samples", "50", "--out", str(report)]) == 0
    doc = read_json(report)
    cfg = SgaConfig(**{k: doc["config"][k]
                       for k in ("alpha", "gamma", "delta", "samples", "seed")})
    objective = load_instance(read_json(instance))
    scenarios = objective.sample_scenarios(cfg.samples, cfg.seed)
    brute = brute_force_opt(objective, objective.matroid, scenarios, cfg.alpha,
                            cfg.tau_grid())
    curvature = auxiliary_curvature(objective, objective.matroid, scenarios,
                                    cfg.tau_grid(), method="exact_matroid_enumeration")
    block = doc["verification"]
    assert block["grid_gap"] > 0  # the two anchors differ on this instance
    assert block["cvar_optimum"] == brute.cvar_star
    assert block["certified_lower_bound"] == approximation_bound(
        curvature, cfg, brute.cvar_star).certified_lower_bound


def test_verify_rejects_nan_utilities(tmp_path, capsys, monkeypatch):
    # one NaN sample in one feasible set is an input error (exit 2), not a verdict
    utilities = VehicleAssignment.utilities

    def nan_in_0_3(self, subset, scenarios):
        u = utilities(self, subset, scenarios)
        if frozenset(subset) == {0, 3}:
            u[0] = float("nan")
        return u

    instance = gen_vehicle(tmp_path)
    monkeypatch.setattr(VehicleAssignment, "utilities", nan_in_0_3)
    code = main(["verify", str(instance), "--alpha", "0.5", "--samples", "20",
                 "--out", str(tmp_path / "report.json")])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: H of the set [0, 3] is NaN" in captured.err
    assert "guarantee" not in captured.out
    assert not (tmp_path / "report.json").exists()


# ------------------------------------------------------------- exit codes

def test_missing_instance_file(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json"), "--alpha", "0.5",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_alpha(tmp_path, capsys):
    instance = gen_vehicle(tmp_path)
    code = main(["run", str(instance), "--alpha", "0", "--out",
                 str(tmp_path / "x")])
    assert code == 2
    assert "risk level" in capsys.readouterr().err


def test_unknown_problem_kind(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": "warehouse"}))
    code = main(["run", str(bad), "--alpha", "0.5", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "unknown problem" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_oversized_batch_is_an_input_error(tmp_path, capsys, monkeypatch, command):
    # the scenario draw that cannot be allocated exits 2, not 1 (violation)
    def no_memory(self, count, seed):
        raise MemoryError(f"cannot allocate {count} scenarios")

    if command == "run":
        instance = gen_vehicle(tmp_path)
        monkeypatch.setattr(VehicleAssignment, "sample_scenarios", no_memory)
        flags = ["--alpha", "0.5"]
    else:
        instance = gen_sensor(tmp_path)
        monkeypatch.setattr(SensorCoverage, "sample_scenarios", no_memory)
        flags = ["--alphas", "0.5,1"]
    code = main([command, str(instance), *flags, "--samples", "1000000000000",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "out of memory" in err and "--samples" in err
    assert not list(tmp_path.glob("x*"))


def test_non_finite_gamma(tmp_path, capsys):
    instance = gen_vehicle(tmp_path)
    code = main(["run", str(instance), "--alpha", "0.5", "--gamma", "inf",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def _top_level_list(doc):
    return [1]


def _null_select(doc):
    doc["select"] = None
    return doc


def _infinite_coverage(doc):
    doc["coverage_sets"][0][0] = float("inf")
    return doc


def _infinite_position(doc):
    doc["demand_positions"][0][0] = float("inf")
    return doc


def _missing_select(doc):
    del doc["select"]
    return doc


def _put(value, *keys):
    """A corruption that sets doc[keys[0]][keys[1]]... to value."""
    def corrupt(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return doc
    return corrupt


def _list_grid_rows(doc):
    doc["grid"] = [[int(ch) for ch in row] for row in doc["grid"]]
    doc["grid"][1][0] = 0.7
    return doc


@pytest.mark.parametrize("problem,corrupt,message", [
    ("vehicle", _top_level_list, "must be a JSON object"),
    ("sensor", _null_select, "NoneType"),
    ("sensor", _infinite_coverage, "infinity"),
    ("vehicle", _infinite_position, "must be finite"),
    ("sensor", _missing_select, "missing required field 'select'"),
    # integer fields are read whole, never truncated
    ("sensor", _put(4.5, "ground_size"), "ground_size must be an integer, got 4.5"),
    ("sensor", _put(2.9, "matroid", "k"), "matroid k must be an integer, got 2.9"),
    ("vehicle", _put(1.7, "matroid", "blocks", 1, 0),
     "matroid blocks[1] entry must be an integer, got 1.7"),
    ("vehicle", _put(1.5, "matroid", "capacities", 0),
     "matroid capacities[0] must be an integer, got 1.5"),
    ("vehicle", _put(True, "matroid", "capacities", 1),
     "matroid capacities[1] must be an integer, got True"),
    ("sensor", _list_grid_rows, "grid[1] cell must be an integer, got 0.7"),
    ("vehicle", _put(5, "matroid"), "matroid must be a JSON object, got int"),
], ids=["top-level-list", "null-select", "infinite-coverage", "infinite-position",
        "missing-select", "fractional-ground-size", "fractional-k", "fractional-block-id",
        "fractional-capacity", "boolean-capacity", "fractional-grid-cell",
        "matroid-not-an-object"])
def test_malformed_instance_file(tmp_path, capsys, problem, corrupt, message):
    good = gen_vehicle(tmp_path) if problem == "vehicle" else gen_sensor(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(read_json(good))))  # inf is written as Infinity
    code = main(["run", str(bad), "--alpha", "0.5", "--delta", "4",
                 "--samples", "20", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert message in err
    assert not (tmp_path / "x.json").exists()


def test_argparse_rejects_missing_alpha(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "whatever.json", "--out", str(tmp_path / "x")])
