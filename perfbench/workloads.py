"""The benchmark workloads: set-up, one operation and its output checks.

Each workload keeps its instance fixed and takes the benchmark seed as the
seed of its scenario batches. The instance fixes how much work one operation
is (tau grid length, ground size, matroid), so runs on different seeds stay
comparable; the seed changes the sampled scenarios and with them the sets the
greedy picks. The library is called through module attributes at call time
(``cli.main``, ``sga.run_sga``) so that traced runs see the calls.

Run from a scratch directory: the CLI workloads write their files into the
current directory under fixed relative names, which the data sections embed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from cvargreedy import cli, problems, risk, sga, synthetic

TOL = 1e-9
DIGESTS = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Chosen:
    """One solver answer to check: the chosen set at the chosen tau."""

    alpha: float
    tau: float
    h_value: float
    chosen_set: frozenset
    case: int = 0            # audit instance index; 0 for the CLI workloads
    slack: float | None = None


@dataclass
class Output:
    """What one operation produced, reduced to what the checks need."""

    exit_code: int
    digest: str = ""
    chosen: list[Chosen] = field(default_factory=list)
    oracle_evaluations: int | None = None


def digest(*sections: str) -> str:
    h = hashlib.sha256()
    for section in sections:
        h.update(section.encode())
        h.update(b"\0")
    return h.hexdigest()


def json_data(path: str) -> str:
    """A CLI JSON file without its manifest, re-serialized canonically."""
    doc = json.loads(Path(path).read_text())
    doc.pop("manifest", None)
    return json.dumps(doc, sort_keys=True)


def csv_data(path: str) -> str:
    """A CLI CSV file without its ``#`` manifest lines."""
    lines = Path(path).read_text().splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("#"))


def recorded_digest(workload: str, seed: int) -> str | None:
    """The data digest recorded for this workload and seed, if any."""
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def parse_set(cell: str) -> frozenset:
    return frozenset(int(e) for e in cell.split(";") if e)


def check_chosen(objective, scenarios, c: Chosen) -> list[str]:
    """Recompute H at the chosen tau and bound it by the set's CVaR."""
    where = f"case {c.case} alpha {c.alpha:g}"
    found = []
    if not objective.matroid.is_independent(c.chosen_set):
        found.append(f"{where}: chosen set {sorted(c.chosen_set)} is not independent")
    u = objective.utilities(c.chosen_set, scenarios)
    h = risk.auxiliary_from_values(u, c.tau, c.alpha)
    scale = max(1.0, abs(c.h_value))
    if abs(h - c.h_value) > TOL * scale:
        found.append(f"{where}: reported H {c.h_value!r} but recomputed {h!r}")
    cvar, _ = risk.cvar_of_set(objective, c.chosen_set, scenarios, c.alpha)
    if c.h_value > cvar + TOL * scale:
        found.append(f"{where}: H {c.h_value!r} exceeds the set's CVaR {cvar!r}")
    if c.slack is not None and c.slack < -TOL:
        found.append(f"{where}: guarantee slack {c.slack!r} below -{TOL:g}")
    return found


class CliWorkload:
    """A CLI subcommand on an instance that ``cvargreedy gen`` writes in set-up."""

    samples = 1000
    gen: list[str]

    def setup(self) -> None:
        instance = self.gen[-1]
        if quiet_cli(self.gen) != 0:
            raise RuntimeError(f"cvargreedy {' '.join(self.gen)} failed")
        self.objective = problems.load_instance(json.loads(Path(instance).read_text()))

    def check(self, output: Output) -> list[str]:
        scenarios = self.objective.sample_scenarios(self.samples, self.seed)
        return [p for c in output.chosen for p in check_chosen(self.objective, scenarios, c)]


class RunVehicle(CliWorkload):
    """``cvargreedy run`` on a 15-vehicle, 20-demand assignment instance."""

    name = "run-vehicle"
    alpha = 0.1
    gen = ["gen", "vehicle", "--vehicles", "15", "--demands", "20", "--seed", "17",
           "--out", "vehicle.json"]
    out = "vehicle_run.json"

    def __init__(self, seed: int):
        self.seed = seed
        self.argv = ["run", "vehicle.json", "--alpha", str(self.alpha), "--delta", "60",
                     "--samples", str(self.samples), "--seed", str(seed), "--out", self.out]

    def operation(self) -> Output:
        code = quiet_cli(self.argv)
        if code != 0:
            return Output(code)
        result = json.loads(Path(self.out).read_text())["result"]
        chosen = Chosen(self.alpha, result["chosen_tau"], result["h_value"],
                        frozenset(result["chosen_set"]))
        return Output(code, digest(json_data(self.out), csv_data("vehicle_run_tau_curve.csv")),
                      [chosen], result["oracle_evaluations"])


class SweepSensor(CliWorkload):
    """``cvargreedy sweep`` over four risk levels on a 20x20 sensor grid."""

    name = "sweep-sensor"
    alphas = "0.1,0.3,0.6,1"
    gen = ["gen", "sensor", "--candidates", "30", "--select", "8", "--rows", "20",
           "--cols", "20", "--obstacle-density", "0.2", "--seed", "2", "--out", "sensor.json"]
    out = "sensor_sweep"
    csvs = ("alpha_table", "tau_curves", "histograms")

    def __init__(self, seed: int):
        self.seed = seed
        self.argv = ["sweep", "sensor.json", "--alphas", self.alphas, "--delta", "8",
                     "--samples", str(self.samples), "--seed", str(seed), "--out", self.out]

    def operation(self) -> Output:
        code = quiet_cli(self.argv)
        if code != 0:
            return Output(code)
        sections = [csv_data(f"{self.out}_{name}.csv") for name in self.csvs]
        chosen = []
        for line in sections[0].splitlines()[1:]:
            alpha, h_value, tau, *_, selected = line.split(",")
            chosen.append(Chosen(float(alpha), float(tau), float(h_value),
                                 parse_set(selected)))
        return Output(code, digest(*sections), chosen)

    def check(self, output: Output) -> list[str]:
        found = super().check(output)
        if len(output.chosen) != len(self.alphas.split(",")):
            found.append(f"alpha table has {len(output.chosen)} rows")
        return found


class AuditSynthetic:
    """The bound audit of ``scripts/bound_audit.py`` as a library loop.

    42 random coverage instances (ground sizes cycling 6..12, mixed
    matroids), each solved at two grid spacings, with the exact optimum,
    the exact matroid-restricted curvature and the certified bound.
    """

    name = "audit-synthetic"
    instances = 42
    samples = 60
    alpha_cycle = (0.15, 0.3, 0.5, 0.75, 1.0)
    deltas = (0.25, 1.0)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.cases = []
        for i in range(self.instances):
            objective = synthetic.random_instance(i, size=6 + i % 7)
            # seed 0 reproduces the script's scenario seeds (instance seed + 1000)
            scenarios = objective.sample_scenarios(self.samples, 1000 * (self.seed + 1) + i)
            self.cases.append((i, objective, scenarios, self.alpha_cycle[i % 5]))

    def operation(self) -> Output:
        rows, chosen, evaluations = [], [], 0
        for i, objective, scenarios, alpha in self.cases:
            for delta in self.deltas:
                cfg = sga.SgaConfig(alpha=alpha, gamma=objective.gamma_hint, delta=delta,
                                    samples=self.samples, seed=scenarios.seed)
                taus = cfg.tau_grid()
                result = sga.run_sga(objective, objective.matroid, cfg, scenarios=scenarios)
                ref = sga.brute_force_opt(objective, objective.matroid, scenarios, alpha, taus)
                curvature = sga.auxiliary_curvature(objective, objective.matroid, scenarios,
                                                    taus, method="exact_matroid_enumeration")
                report = sga.approximation_bound(curvature, cfg, h_star=ref.cvar_star)
                slack = result.h_value - report.certified_lower_bound
                rows.append([i, objective.ground.size, alpha, delta, result.h_value,
                             result.chosen_tau, sorted(result.chosen_set), ref.h_star,
                             ref.cvar_star, curvature.value,
                             report.certified_lower_bound, slack])
                chosen.append(Chosen(alpha, result.chosen_tau, result.h_value,
                                     result.chosen_set, case=i, slack=slack))
                evaluations += result.oracle_evaluations
        table = "".join(",".join(repr(v) for v in row) + "\n" for row in rows)
        return Output(0, digest(table), chosen, evaluations)

    def check(self, output: Output) -> list[str]:
        found = []
        if len(output.chosen) != self.instances * len(self.deltas):
            found.append(f"audit produced {len(output.chosen)} cases")
        for c in output.chosen:
            _, objective, scenarios, _ = self.cases[c.case]
            found += check_chosen(objective, scenarios, c)
        return found


WORKLOADS = {w.name: w for w in (RunVehicle, SweepSensor, AuditSynthetic)}
