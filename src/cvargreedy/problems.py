"""Built-in stochastic objectives.

* VehicleAssignment: assign supply vehicles to demand locations in a square
  region. Arrival efficiency of vehicle j at demand i is drawn uniformly from
  an interval around the mean efficiency 10 / distance; a demand served by
  several vehicles counts only its best one. One pair per vehicle (partition
  matroid with unit capacities).
* SensorCoverage: choose sensor sites among candidate cells of an occupancy
  grid. A sensor covers every free cell whose center-to-center segment dodges
  all obstacle cells, but the whole sensor fails independently with a
  probability that grows with its coverage. Utility is the cell count of the
  union of the surviving coverage sets. At most M sites (uniform matroid).
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .matroid import GroundSet, PartitionMatroid, UniformMatroid, matroid_from_json
from .objective import (ScenarioSet, StochasticObjective, _u64,
                        check_sample_count)

MEAN_EFFICIENCY_SCALE = 10.0      # mean efficiency = 10 / distance
SPREAD_EXPONENT = 2.5             # interval half-width = mean**2.5 / max(mean)
_GEOM_EPS = 1e-9                  # tolerance for segment/cell interior overlap


# --------------------------------------------------------------------------
# vehicle assignment
# --------------------------------------------------------------------------

class VehicleAssignment(StochasticObjective):
    """Stochastic vehicle-to-demand assignment utility.

    Ground element i*R + j stands for the pair (demand i, vehicle j).
    Scenario payload: an (N, R) matrix of drawn efficiencies.
    """

    def __init__(self, demand_xy, vehicle_xy, side: float = 10.0, seed: int = 0):
        demand_xy = np.asarray(demand_xy, dtype=float)
        vehicle_xy = np.asarray(vehicle_xy, dtype=float)
        if demand_xy.ndim != 2 or demand_xy.shape[1] != 2 or demand_xy.shape[0] < 1:
            raise ValueError("demand positions must be a nonempty (N, 2) array")
        if vehicle_xy.ndim != 2 or vehicle_xy.shape[1] != 2 or vehicle_xy.shape[0] < 1:
            raise ValueError("vehicle positions must be a nonempty (R, 2) array")
        if not (np.all(np.isfinite(demand_xy)) and np.all(np.isfinite(vehicle_xy))):
            raise ValueError("demand and vehicle positions must be finite numbers")
        self.demand_xy = demand_xy
        self.vehicle_xy = vehicle_xy
        self.side = float(side)
        self.seed = int(seed)
        n, r = demand_xy.shape[0], vehicle_xy.shape[0]
        self.demands, self.vehicles = n, r

        diff = demand_xy[:, None, :] - vehicle_xy[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        if np.any(dist == 0.0):
            raise ValueError(
                "a vehicle sits exactly on a demand location; mean efficiency "
                "is undefined there (regenerate that position)")
        self.mean_eff = MEAN_EFFICIENCY_SCALE / dist
        spread = self.mean_eff ** SPREAD_EXPONENT / self.mean_eff.max()
        # negative lower endpoints would allow negative efficiencies; clamp at 0
        self.eff_low = np.maximum(self.mean_eff - spread, 0.0)
        self.eff_high = self.mean_eff + spread

        labels = tuple(f"d{i}-v{j}" for i in range(n) for j in range(r))
        self.ground = GroundSet(n * r, labels)
        blocks = tuple(frozenset(i * r + j for i in range(n)) for j in range(r))
        self.matroid = PartitionMatroid(self.ground, blocks, (1,) * r)
        self.gamma_hint = float(n * self.eff_high.max())

    @classmethod
    def generate(cls, vehicles: int, demands: int, side: float = 10.0,
                 seed: int = 0) -> "VehicleAssignment":
        """Vehicles and demands placed independently uniformly in a side x side square."""
        if vehicles < 1 or demands < 1:
            raise ValueError("need at least one vehicle and one demand")
        if side <= 0:
            raise ValueError(f"square side must be positive, got {side}")
        rng = np.random.default_rng(_u64(seed))
        demand_xy = rng.uniform(0.0, side, (demands, 2))
        vehicle_xy = rng.uniform(0.0, side, (vehicles, 2))
        while True:
            diff = demand_xy[:, None, :] - vehicle_xy[None, :, :]
            coincident = np.flatnonzero(np.any(np.all(diff == 0.0, axis=2), axis=0))
            if coincident.size == 0:
                break
            for j in coincident:
                vehicle_xy[j] = rng.uniform(0.0, side, 2)
        return cls(demand_xy, vehicle_xy, side=side, seed=seed)

    def pair_id(self, demand: int, vehicle: int) -> int:
        if not (0 <= demand < self.demands and 0 <= vehicle < self.vehicles):
            raise ValueError(f"no pair (demand={demand}, vehicle={vehicle})")
        return demand * self.vehicles + vehicle

    def pair_of(self, element: int) -> tuple[int, int]:
        return divmod(element, self.vehicles)

    def sample_scenarios(self, count: int, seed: int) -> ScenarioSet:
        count = check_sample_count(count)
        rng = np.random.default_rng(_u64(seed))
        u = rng.random((count, self.demands, self.vehicles))
        data = self.eff_low + u * (self.eff_high - self.eff_low)
        return ScenarioSet(data, count, int(seed))

    def _by_demand(self, subset) -> dict[int, list[int]]:
        grouped: dict[int, list[int]] = defaultdict(list)
        for e in subset:
            i, j = self.pair_of(e)
            grouped[i].append(j)
        return grouped

    def utilities(self, subset, scenarios: ScenarioSet) -> np.ndarray:
        subset = self.ground.check_subset(subset)
        eff = scenarios.data
        total = np.zeros(len(scenarios))
        for i, js in self._by_demand(subset).items():
            total += eff[:, i, js].max(axis=1)
        return total

    def to_json(self) -> dict:
        return {
            "problem": "vehicle",
            "vehicles": self.vehicles,
            "demands": self.demands,
            "side": self.side,
            "seed": self.seed,
            "demand_positions": self.demand_xy.tolist(),
            "vehicle_positions": self.vehicle_xy.tolist(),
            "ground_size": self.ground.size,
            "matroid": self.matroid.fragment(),
            "gamma_hint": self.gamma_hint,
        }

    @classmethod
    def from_json(cls, data: dict) -> "VehicleAssignment":
        inst = cls(np.asarray(data["demand_positions"], dtype=float),
                   np.asarray(data["vehicle_positions"], dtype=float),
                   side=float(data.get("side", 10.0)),
                   seed=int(data.get("seed", 0)))
        if "ground_size" in data and int(data["ground_size"]) != inst.ground.size:
            raise ValueError("instance file ground_size does not match the positions")
        return inst


# --------------------------------------------------------------------------
# occupancy grids and straight-line visibility
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OccupancyGrid:
    """Rectangular cell grid; obstacle cells are stored as flat ids r*cols + c."""

    rows: int
    cols: int
    obstacles: frozenset[int]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid needs at least one row and one column")
        object.__setattr__(self, "obstacles", frozenset(int(c) for c in self.obstacles))
        for c in self.obstacles:
            if not 0 <= c < self.rows * self.cols:
                raise ValueError(f"obstacle cell {c} outside the grid")

    @classmethod
    def from_rows(cls, rows) -> "OccupancyGrid":
        """Parse rows of 0/1 characters (strings) or 0/1 integers (lists)."""
        parsed = []
        for row in rows:
            if isinstance(row, str):
                parsed.append([int(ch) for ch in row.strip()])
            else:
                parsed.append([int(v) for v in row])
        if not parsed or not parsed[0]:
            raise ValueError("grid rows must be nonempty")
        cols = len(parsed[0])
        if any(len(r) != cols for r in parsed):
            raise ValueError("all grid rows must have equal length")
        if any(v not in (0, 1) for r in parsed for v in r):
            raise ValueError("grid cells must be 0 (free) or 1 (obstacle)")
        obstacles = frozenset(r * cols + c
                              for r, row in enumerate(parsed)
                              for c, v in enumerate(row) if v == 1)
        return cls(len(parsed), cols, obstacles)

    def to_rows(self) -> list[str]:
        return ["".join("1" if r * self.cols + c in self.obstacles else "0"
                        for c in range(self.cols))
                for r in range(self.rows)]

    def cell_rc(self, cell: int) -> tuple[int, int]:
        return divmod(cell, self.cols)

    def is_free(self, cell: int) -> bool:
        return 0 <= cell < self.rows * self.cols and cell not in self.obstacles

    def free_cells(self) -> list[int]:
        return [c for c in range(self.rows * self.cols) if c not in self.obstacles]


def _segment_blocked(p0: np.ndarray, p1: np.ndarray, obstacle_rc: np.ndarray) -> bool:
    """True when the open segment p0->p1 crosses some obstacle cell interior.

    Slab clipping against each obstacle square [r, r+1] x [c, c+1]. Grazing a
    cell corner or sliding along an edge has zero interior overlap and does
    not block; with half-integer cell centers the comparisons stay far from
    the epsilon.
    """
    if obstacle_rc.size == 0:
        return False
    d = p1 - p0
    if d[0] == 0.0 and d[1] == 0.0:
        return False
    m = obstacle_rc.shape[0]
    t_lo = np.zeros(m)
    t_hi = np.ones(m)
    for axis in (0, 1):
        o = obstacle_rc[:, axis]
        p = p0[axis]
        dd = d[axis]
        if dd == 0.0:
            inside = (o + _GEOM_EPS < p) & (p < o + 1.0 - _GEOM_EPS)
            t_hi = np.where(inside, t_hi, -np.inf)
        else:
            t1 = (o - p) / dd
            t2 = (o + 1.0 - p) / dd
            t_lo = np.maximum(t_lo, np.minimum(t1, t2))
            t_hi = np.minimum(t_hi, np.maximum(t1, t2))
    return bool(np.any(t_hi - t_lo > _GEOM_EPS))


def visible_cells(grid: OccupancyGrid, origin: int) -> list[int]:
    """Free cells seen from the origin cell along center-to-center segments."""
    if not grid.is_free(origin):
        raise ValueError(f"origin cell {origin} is not a free cell")
    obstacle_rc = np.array([grid.cell_rc(c) for c in sorted(grid.obstacles)],
                           dtype=float).reshape(-1, 2)
    o_rc = np.array(grid.cell_rc(origin), dtype=float) + 0.5
    seen = []
    for target in grid.free_cells():
        t_rc = np.array(grid.cell_rc(target), dtype=float) + 0.5
        if not _segment_blocked(o_rc, t_rc, obstacle_rc):
            seen.append(target)
    return seen


# --------------------------------------------------------------------------
# sensor coverage
# --------------------------------------------------------------------------

class SensorCoverage(StochasticObjective):
    """Failure-prone sensor placement utility.

    Candidate i covers ``coverage_sets[i]`` (cell ids) when it works, which
    happens with probability 1 - v_i / v_free where v_i is its coverage size
    and v_free the number of free cells: the wider the view, the likelier the
    failure. Scenario payload: a length-N vector of success bits.
    """

    def __init__(self, coverage_sets, free_cell_count: int, select: int,
                 grid: OccupancyGrid | None = None, sensor_cells=None,
                 seed: int = 0):
        sets = [tuple(sorted(int(c) for c in s)) for s in coverage_sets]
        if not sets:
            raise ValueError("at least one candidate sensor is required")
        n = len(sets)
        if not 1 <= select <= n:
            raise ValueError(
                f"number of sensors to place must lie in 1..{n}, got {select}")
        free_cell_count = int(free_cell_count)
        if free_cell_count < 1:
            raise ValueError("free cell count must be positive")
        sizes = np.array([len(set(s)) for s in sets], dtype=float)
        if np.any(sizes > free_cell_count):
            raise ValueError("a coverage set is larger than the free space")
        self.coverage_sets = sets
        self.free_cell_count = free_cell_count
        self.select = int(select)
        self.grid = grid
        self.sensor_cells = None if sensor_cells is None else [int(c) for c in sensor_cells]
        self.seed = int(seed)

        universe = sorted(set().union(*(set(s) for s in sets)) or {0})
        col = {cell: idx for idx, cell in enumerate(universe)}
        cover = np.zeros((n, len(universe)), dtype=bool)
        for i, s in enumerate(sets):
            for cell in s:
                cover[i, col[cell]] = True
        self._cover_f = cover.astype(np.float32)
        self.success_prob = 1.0 - sizes / free_cell_count

        self.ground = GroundSet(n, tuple(f"s{i}" for i in range(n)))
        self.matroid = UniformMatroid(self.ground, self.select)
        self.gamma_hint = float(free_cell_count)

    @classmethod
    def generate(cls, candidates: int, select: int, grid: OccupancyGrid,
                 seed: int = 0) -> "SensorCoverage":
        """Sample distinct candidate sites among the free cells, then trace visibility."""
        free = grid.free_cells()
        if not free:
            raise ValueError("the grid has no free cells")
        if not 1 <= candidates <= len(free):
            raise ValueError(
                f"candidate count must lie in 1..{len(free)} (free cells), got {candidates}")
        rng = np.random.default_rng(_u64(seed))
        cells = sorted(int(c) for c in rng.choice(free, size=candidates, replace=False))
        coverage = [visible_cells(grid, c) for c in cells]
        return cls(coverage, len(free), select, grid=grid, sensor_cells=cells, seed=seed)

    def sample_scenarios(self, count: int, seed: int) -> ScenarioSet:
        count = check_sample_count(count)
        rng = np.random.default_rng(_u64(seed))
        bits = (rng.random((count, len(self.coverage_sets))) < self.success_prob)
        return ScenarioSet(bits.astype(np.uint8), count, int(seed))

    def utilities(self, subset, scenarios: ScenarioSet) -> np.ndarray:
        subset = self.ground.check_subset(subset)
        if not subset:
            return np.zeros(len(scenarios))
        ids = sorted(subset)
        active = scenarios.data[:, ids].astype(np.float32)
        covered = active @ self._cover_f[ids]
        return (covered > 0.5).sum(axis=1).astype(float)

    def to_json(self) -> dict:
        data = {
            "problem": "sensor",
            "candidates": len(self.coverage_sets),
            "select": self.select,
            "seed": self.seed,
            "free_cell_count": self.free_cell_count,
            "coverage_sets": [list(s) for s in self.coverage_sets],
            "ground_size": self.ground.size,
            "matroid": self.matroid.fragment(),
            "gamma_hint": self.gamma_hint,
        }
        if self.grid is not None:
            data["grid"] = self.grid.to_rows()
        if self.sensor_cells is not None:
            data["sensor_cells"] = list(self.sensor_cells)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "SensorCoverage":
        grid = OccupancyGrid.from_rows(data["grid"]) if "grid" in data else None
        select = int(data["select"])
        seed = int(data.get("seed", 0))
        sensor_cells = data.get("sensor_cells")
        if "coverage_sets" in data:
            if "free_cell_count" in data:
                free_count = int(data["free_cell_count"])
            elif grid is not None:
                free_count = len(grid.free_cells())
            else:
                raise ValueError(
                    "explicit coverage_sets need free_cell_count (or a grid)")
            return cls(data["coverage_sets"], free_count, select,
                       grid=grid, sensor_cells=sensor_cells, seed=seed)
        if grid is None or sensor_cells is None:
            raise ValueError(
                "a sensor instance needs either coverage_sets or grid + sensor_cells")
        coverage = [visible_cells(grid, int(c)) for c in sensor_cells]
        return cls(coverage, len(grid.free_cells()), select,
                   grid=grid, sensor_cells=sensor_cells, seed=seed)


# --------------------------------------------------------------------------
# instance files
# --------------------------------------------------------------------------

_PROBLEMS = {"vehicle": VehicleAssignment, "sensor": SensorCoverage}


def load_instance(data: dict) -> StochasticObjective:
    """Rebuild an objective from its JSON dict (see ``to_json`` of each problem)."""
    if not isinstance(data, dict):
        raise ValueError(
            f"an instance must be a JSON object, got {type(data).__name__}")
    kind = data.get("problem")
    if kind not in _PROBLEMS:
        raise ValueError(
            f"unknown problem type {kind!r}; expected one of {sorted(_PROBLEMS)}")
    instance = _PROBLEMS[kind].from_json(data)
    if "matroid" in data and "ground_size" in data:
        declared = matroid_from_json(
            {"ground_size": data["ground_size"], "matroid": data["matroid"]},
            labels=instance.ground.labels)
        if declared != instance.matroid:
            raise ValueError("instance file matroid does not match the problem data")
    return instance
