"""Command line interface.

Subcommands: ``gen`` (write an instance file), ``run`` (solve one risk
level), ``sweep`` (solve a list of risk levels and emit plot-ready CSV) and
``verify`` (brute-force check of the approximation guarantee on a small
instance). Every output file embeds a manifest (command line, config hash,
instance seed, library version, timestamp); rerunning with identical flags
reproduces the data sections byte for byte. Every run draws one scenario
batch from --seed and reuses it for every evaluation (common random numbers).

Exit codes: 0 success (and guarantee holds when verifying), 1 guarantee
violated, 2 usage or input error. Notes that are not data, such as a
vacuous certified bound, go to the ``cvargreedy`` logger as warnings, which
Python prints to stderr unless logging is configured otherwise.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .objective import child_seed
from .problems import OccupancyGrid, SensorCoverage, VehicleAssignment, load_instance
from .sga import (BoundReport, SgaConfig, alpha_sweep, approximation_bound,
                  auxiliary_curvature, brute_force_opt, run_sga)

SLACK_TOL = 1e-9

log = logging.getLogger("cvargreedy")

_CSV_COLUMNS = """\
CSV outputs (manifest in leading # comment lines):
  run:   <out>_tau_curve.csv       tau,h_value,selected_set
  sweep: <out>_alpha_table.csv     alpha,h_value,tau,utility_mean,utility_std,additive_error,selected_set
         <out>_tau_curves.csv      alpha,tau,h_value
         <out>_histograms.csv      alpha,bin_left,bin_right,count
Sets are ; joined element ids. utility_mean/std come from a fresh scenario
batch; additive_error is the curvature-driven additive bound term."""


# --------------------------------------------------------------------------
# manifests and writers
# --------------------------------------------------------------------------

def _manifest(argv: list[str], hash_payload, instance_seed: int | None) -> dict:
    """The manifest of an output: the command line, a hash of ``hash_payload``,
    the instance seed, the library version and the time."""
    canonical = json.dumps(hash_payload, sort_keys=True, default=str)
    return {"command": "cvargreedy " + " ".join(argv),
            "config_hash": hashlib.sha256(canonical.encode()).hexdigest()[:16],
            "instance_seed": instance_seed, "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds")}


def _write_json(path: Path, manifest: dict, payload: dict) -> None:
    path.write_text(json.dumps({"manifest": manifest, **payload}, indent=2) + "\n")


def _write_csv(path: Path, manifest: dict, header: list[str], rows) -> None:
    lines = [f"# {k}: {v}" for k, v in manifest.items()] + [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _set_cell(subset) -> str:
    return ";".join(str(e) for e in sorted(subset))


def _load_objective(path: str):
    """Read and rebuild an instance; malformed content is a ValueError naming the file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
        return load_instance(data), data
    except KeyError as err:
        raise ValueError(
            f"instance file {path}: missing required field {err.args[0]!r}") from err
    except (ValueError, TypeError, OverflowError) as err:
        raise ValueError(f"instance file {path}: {err}") from err


def _config_dict(cfg: SgaConfig) -> dict:
    # scenario_policy is a constant, kept so the data sections stay unchanged
    return {"alpha": cfg.alpha, "gamma": cfg.gamma, "delta": cfg.delta,
            "samples": cfg.samples, "seed": cfg.seed,
            "scenario_policy": "common_random_numbers"}


def _risk_label(alpha: float) -> str:
    return "risk-neutral" if alpha == 1.0 else "risk-averse"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    if args.problem == "vehicle":
        instance = VehicleAssignment.generate(args.vehicles, args.demands,
                                              side=args.side, seed=args.seed)
        summary = (f"vehicle instance: {instance.ground.size} pairs, partition "
                   f"matroid ({instance.vehicles} unit blocks), "
                   f"gamma hint {instance.gamma_hint:.4g}")
    else:
        if args.grid is not None:
            rows = [line for line in Path(args.grid).read_text().splitlines()
                    if line.strip()]
            grid = OccupancyGrid.from_rows(rows)
        else:
            if not 0.0 <= args.obstacle_density <= 1.0:
                raise ValueError("obstacle density must lie in [0, 1], got "
                                 f"{args.obstacle_density}")
            rng = np.random.default_rng(child_seed(args.seed, 1))
            cells = rng.random((args.rows, args.cols)) < args.obstacle_density
            grid = OccupancyGrid.from_rows(cells.astype(int).tolist())
        instance = SensorCoverage.generate(args.candidates, args.select, grid,
                                           seed=args.seed)
        summary = (f"sensor instance: {instance.ground.size} candidates, uniform "
                   f"matroid (k={instance.select}), {instance.free_cell_count} "
                   f"free cells, gamma hint {instance.gamma_hint:.4g}")
    manifest = _manifest(args.argv, instance.to_json(), instance.seed)
    out = Path(args.out)
    _write_json(out, manifest, instance.to_json())
    print(summary)
    print(f"wrote {out}")
    return 0


def _build_config(args: argparse.Namespace, objective, alpha: float) -> SgaConfig:
    gamma = args.gamma if args.gamma is not None else objective.gamma_hint
    return SgaConfig(alpha=alpha, gamma=gamma, delta=args.delta,
                     samples=args.samples, seed=args.seed)


def _log_if_vacuous(bound: BoundReport, cfg: SgaConfig) -> None:
    """Log when the certified bound is at most 0 for every optimum <= gamma.

    Every H value is at most gamma when gamma bounds the utility, and the
    bound (OPT - delta) / (1+k) - additive then stays <= 0 once the additive
    term reaches (gamma - delta) / (1+k): at curvature 1 for every alpha <= 0.5.
    """
    if bound.additive >= (cfg.gamma - cfg.delta) * bound.multiplicative:
        log.warning("curvature %g: the certified bound is vacuous at alpha %g "
                    "(additive term %.6g)", bound.curvature, cfg.alpha, bound.additive)


def _log_if_gamma_low(utilities: np.ndarray, cfg: SgaConfig) -> None:
    """Log when gamma is below a sampled utility of the chosen set.

    Such a gamma does not bound the utility, which the certified bound
    assumes; the data sections stay as they are."""
    top = float(np.max(utilities))
    if top > cfg.gamma:
        log.warning("gamma %g is below the largest sampled utility %.6g of the chosen "
                    "set at alpha %g: it does not bound the utility, so the certified "
                    "bound does not hold", cfg.gamma, top, cfg.alpha)


def verification(objective, cfg: SgaConfig, scenarios, result) -> tuple[dict, bool]:
    """Brute-force optimum, exact curvature and the verdict slack >= -SLACK_TOL."""
    taus = cfg.tau_grid()
    brute = brute_force_opt(objective, objective.matroid, scenarios, cfg.alpha, taus)
    curvature = auxiliary_curvature(objective, objective.matroid, scenarios, taus,
                                    method="exact_matroid_enumeration")
    # OPT is the grid-free optimum: the bound subtracts the grid penalty itself
    report = approximation_bound(curvature, cfg, brute.cvar_star)
    slack = result.h_value - report.certified_lower_bound
    passed = slack >= -SLACK_TOL
    block = {
        "h_star": brute.h_star,
        "optimal_set": sorted(brute.best_set),
        "optimal_tau": brute.best_tau,
        "cvar_optimum": brute.cvar_star,
        "cvar_optimal_set": sorted(brute.cvar_best_set),
        "grid_gap": brute.cvar_star - brute.h_star,
        "curvature": report.curvature,
        "curvature_method": report.curvature_method,
        "certified_lower_bound": report.certified_lower_bound,
        "slack": slack,
        "passed": passed,
    }
    return block, passed


def cmd_run(args: argparse.Namespace) -> int:
    objective, instance_data = _load_objective(args.instance)
    cfg = _build_config(args, objective, args.alpha)
    scenarios = objective.sample_scenarios(cfg.samples, cfg.seed)
    result = run_sga(objective, objective.matroid, cfg, scenarios=scenarios)
    bound = approximation_bound(
        auxiliary_curvature(objective, objective.matroid, scenarios,
                            cfg.tau_grid()), cfg)
    _log_if_vacuous(bound, cfg)
    _log_if_gamma_low(objective.utilities(result.chosen_set, scenarios), cfg)
    payload = {
        "config": _config_dict(cfg),
        "risk_label": _risk_label(cfg.alpha),
        "instance": {"path": args.instance,
                     "problem": instance_data.get("problem"),
                     "ground_size": objective.ground.size,
                     "seed": objective.seed,
                     "gamma_hint": objective.gamma_hint},
        "result": {
            "chosen_set": sorted(result.chosen_set),
            "chosen_labels": [objective.ground.label(e)
                              for e in sorted(result.chosen_set)],
            "chosen_tau": result.chosen_tau,
            "h_value": result.h_value,
            "oracle_evaluations": result.oracle_evaluations,
            "sweep": [{"tau": p.tau, "h_value": p.h_value,
                       "set": sorted(p.selected)} for p in result.sweep],
        },
        "bound": {"curvature": bound.curvature,
                  "curvature_method": bound.curvature_method,
                  "multiplicative": bound.multiplicative,
                  "delta_term": bound.delta_term,
                  "additive": bound.additive},
    }
    passed = True
    if args.verify:
        block, passed = verification(objective, cfg, scenarios, result)
        payload["verification"] = block
    manifest = _manifest(
        args.argv, {"config": _config_dict(cfg), "instance": instance_data},
        instance_data.get("seed"))
    out = Path(args.out)
    json_path = out.with_suffix(".json") if out.suffix != ".json" else out
    stem = json_path.with_suffix("")
    _write_json(json_path, manifest, payload)
    _write_csv(Path(f"{stem}_tau_curve.csv"), manifest,
               ["tau", "h_value", "selected_set"],
               [[p.tau, p.h_value, _set_cell(p.selected)] for p in result.sweep])
    print(f"{_risk_label(cfg.alpha)} run: value {result.h_value:.6g} at "
          f"tau {result.chosen_tau:.6g}, set {_set_cell(result.chosen_set) or '{}'}")
    if args.verify:
        print(f"guarantee: {'PASS' if passed else 'FAIL'}")
    print(f"wrote {json_path} and {stem}_tau_curve.csv")
    return 0 if passed else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    objective, instance_data = _load_objective(args.instance)
    alphas = args.alphas
    cfg = _build_config(args, objective, alphas[0])
    table = alpha_sweep(objective, objective.matroid, cfg, alphas,
                        eval_samples=args.eval_samples)
    manifest = _manifest(
        args.argv,
        {"config": _config_dict(cfg), "alphas": alphas, "instance": instance_data},
        instance_data.get("seed"))
    stem = Path(args.out)
    if stem.suffix:
        stem = stem.with_suffix("")
    alpha_rows = []
    curve_rows = []
    hist_rows = []
    for point in table.points:
        res = point.result
        _log_if_vacuous(approximation_bound(table.curvature, res.config), res.config)
        _log_if_gamma_low(point.utilities, res.config)
        alpha_rows.append([point.alpha, res.h_value, res.chosen_tau,
                           point.utility_mean, point.utility_std,
                           point.additive_error, _set_cell(res.chosen_set)])
        for p in res.sweep:
            curve_rows.append([point.alpha, p.tau, p.h_value])
        counts, edges = np.histogram(point.utilities, bins=args.bins)
        for b in range(len(counts)):
            hist_rows.append([point.alpha, float(edges[b]), float(edges[b + 1]),
                              int(counts[b])])
    _write_csv(Path(f"{stem}_alpha_table.csv"), manifest,
               ["alpha", "h_value", "tau", "utility_mean", "utility_std",
                "additive_error", "selected_set"], alpha_rows)
    _write_csv(Path(f"{stem}_tau_curves.csv"), manifest,
               ["alpha", "tau", "h_value"], curve_rows)
    _write_csv(Path(f"{stem}_histograms.csv"), manifest,
               ["alpha", "bin_left", "bin_right", "count"], hist_rows)
    for point in table.points:
        print(f"alpha {point.alpha:g} ({_risk_label(point.alpha)}): "
              f"value {point.result.h_value:.6g}, "
              f"utility mean {point.utility_mean:.6g} std {point.utility_std:.6g}")
    print(f"wrote {stem}_alpha_table.csv, {stem}_tau_curves.csv, "
          f"{stem}_histograms.csv")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    objective, instance_data = _load_objective(args.instance)
    cfg = _build_config(args, objective, args.alpha)
    scenarios = objective.sample_scenarios(cfg.samples, cfg.seed)
    result = run_sga(objective, objective.matroid, cfg, scenarios=scenarios)
    block, passed = verification(objective, cfg, scenarios, result)
    print(f"solver value {result.h_value:.6g} at tau {result.chosen_tau:.6g}, "
          f"set {_set_cell(result.chosen_set) or '{}'}")
    print(f"exact grid optimum {block['h_star']:.6g} at tau "
          f"{block['optimal_tau']:.6g}, cvar optimum {block['cvar_optimum']:.6g}")
    print(f"curvature {block['curvature']:.6g} ({block['curvature_method']}), "
          f"certified lower bound {block['certified_lower_bound']:.6g}")
    print(f"slack {block['slack']:.6g}, grid gap {block['grid_gap']:.6g} "
          f"(delta {cfg.delta:g})")
    print(f"guarantee: {'PASS' if passed else 'FAIL'}")
    if args.out:
        manifest = _manifest(
            args.argv, {"config": _config_dict(cfg), "instance": instance_data},
            instance_data.get("seed"))
        _write_json(Path(args.out), manifest,
                    {"config": _config_dict(cfg), "verification": block})
        print(f"wrote {args.out}")
    return 0 if passed else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _alpha_list(raw: str) -> list[float]:
    values = [float(x) for x in raw.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError("at least one alpha is required")
    return values


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, default=None,
                   help="top of the tau sweep (default: the instance gamma hint)")
    p.add_argument("--delta", type=float, default=1.0,
                   help="tau grid step (default 1)")
    p.add_argument("--samples", type=int, default=1000,
                   help="scenario batch size per evaluation (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="scenario seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvargreedy",
        description="Risk-averse maximization of stochastic monotone submodular "
                    "set utilities under matroid constraints (alpha = 1 is the "
                    "risk-neutral expectation).",
        epilog=_CSV_COLUMNS,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen_sub = gen.add_subparsers(dest="problem", required=True)
    gv = gen_sub.add_parser("vehicle", help="vehicle-to-demand assignment instance")
    gv.add_argument("--vehicles", type=int, default=6)
    gv.add_argument("--demands", type=int, default=4)
    gv.add_argument("--side", type=float, default=10.0,
                    help="side of the square region (default 10)")
    gv.add_argument("--seed", type=int, default=0)
    gv.add_argument("--out", required=True, help="instance JSON path")
    gv.set_defaults(func=cmd_gen, problem="vehicle")
    gs = gen_sub.add_parser("sensor", help="grid sensor coverage instance")
    gs.add_argument("--candidates", type=int, default=8)
    gs.add_argument("--select", type=int, default=4)
    gs.add_argument("--grid", default=None,
                    help="text file with rows of 0 (free) / 1 (obstacle); "
                         "omit for a random grid")
    gs.add_argument("--rows", type=int, default=12, help="random grid rows")
    gs.add_argument("--cols", type=int, default=12, help="random grid columns")
    gs.add_argument("--obstacle-density", type=float, default=0.2,
                    dest="obstacle_density")
    gs.add_argument("--seed", type=int, default=0)
    gs.add_argument("--out", required=True, help="instance JSON path")
    gs.set_defaults(func=cmd_gen, problem="sensor")

    run = sub.add_parser("run", help="solve one risk level",
                         epilog=_CSV_COLUMNS,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
    run.add_argument("instance", help="instance JSON file")
    run.add_argument("--alpha", type=float, required=True,
                     help="risk level in (0, 1]; 1 is risk-neutral")
    _add_solver_flags(run)
    run.add_argument("--verify", action="store_true",
                     help="append the brute-force optimum and the guarantee "
                          "verdict (small instances only); exit 1 on violation")
    run.add_argument("--out", required=True, help="output prefix or .json path")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="solve a list of risk levels",
                           epilog=_CSV_COLUMNS,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
    sweep.add_argument("instance")
    sweep.add_argument("--alphas", type=_alpha_list, required=True,
                       help="comma separated risk levels, e.g. 0.1,0.5,1")
    _add_solver_flags(sweep)
    sweep.add_argument("--eval-samples", type=int, default=None,
                       dest="eval_samples",
                       help="fresh batch size for utility histograms "
                            "(default: --samples)")
    sweep.add_argument("--bins", type=int, default=30, help="histogram bins")
    sweep.add_argument("--out", required=True, help="output prefix")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify",
                            help="brute-force check of the guarantee (exit 1 on "
                                 "violation)")
    verify.add_argument("instance")
    verify.add_argument("--alpha", type=float, required=True)
    _add_solver_flags(verify)
    verify.add_argument("--out", default=None, help="optional report JSON path")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; lower --samples", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
