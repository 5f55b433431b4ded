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

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import sga
from .matroid import (GroundSet, PartitionMatroid, UniformMatroid, _integer,
                      matroid_from_json)
from .objective import (ScenarioSet, StochasticObjective, _u64,
                        check_sample_count)

MEAN_EFFICIENCY_SCALE = 10.0      # mean efficiency = 10 / distance
SPREAD_EXPONENT = 2.5             # interval half-width = mean**2.5 / max(mean)
_GEOM_EPS = 1e-9                  # tolerance for segment/cell interior overlap
MAX_FREE_CELLS = 2**24            # float32 coverage counts are exact below this


# --------------------------------------------------------------------------
# vehicle assignment
# --------------------------------------------------------------------------

class VehicleAssignment(StochasticObjective):
    """Stochastic vehicle-to-demand assignment utility.

    Ground element i*R + j stands for the pair (demand i, vehicle j).
    Scenario payload: an (N, R) matrix of drawn efficiencies; a batch from
    ``sample_scenarios`` stores each pair's samples contiguously.

    A utility is a float sum of at most N nonnegative per-demand maxima,
    each exact, so it errs by at most gamma_{N-1} times the real sum of
    maxima, which is monotone submodular: ``utility_rounding``.
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
        self.utility_rounding = sga._gamma(n - 1)

    @classmethod
    def generate(cls, vehicles: int, demands: int, side: float = 10.0,
                 seed: int = 0) -> "VehicleAssignment":
        """Vehicles and demands placed independently uniformly in a side x side square."""
        vehicles, demands = _integer(vehicles, "vehicles"), _integer(demands, "demands")
        if vehicles < 1 or demands < 1:
            raise ValueError("need at least one vehicle and one demand")
        if not (math.isfinite(side) and side > 0):
            raise ValueError(f"square side must be positive and finite, got {side}")
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
        """The (count, N, R) efficiencies of ``rng.random((count, N, R))``,
        scaled to each pair's interval, stored pair-major.

        The batch is a (count, N, R) view of an (N*R, count) buffer whose
        row e holds the samples of pair e (``_pairs``). It is filled from
        the same ``rng.random`` stream in draws of whole samples within
        ``sga._GROUP_FLOATS`` floats (at least one sample), each scaled in
        place, so its bits are those of one draw of the whole batch.
        """
        count = check_sample_count(count)
        rng = np.random.default_rng(_u64(seed))
        size = self.ground.size
        pairs = np.empty((size, count))
        step = max(1, sga._GROUP_FLOATS // size)
        draw = np.empty((min(step, count), size))
        span, low = (self.eff_high - self.eff_low).ravel(), self.eff_low.ravel()
        for lo in range(0, count, step):
            chunk = rng.random(out=draw[:count - lo])
            chunk *= span
            chunk += low
            pairs[:, lo:lo + step] = chunk.T
        data = pairs.reshape(self.demands, self.vehicles, count).transpose(2, 0, 1)
        return ScenarioSet(data, count, int(seed))

    def _pairs(self, scenarios: ScenarioSet) -> np.ndarray:
        """The batch as C-ordered (N*R, samples) rows, row e the samples of
        pair e: a view of a batch from ``sample_scenarios``, a copy of any
        other."""
        pairs = scenarios.data.transpose(1, 2, 0).reshape(self.ground.size, len(scenarios))
        return np.ascontiguousarray(pairs)

    def _by_demand(self, subset) -> dict[int, list[int]]:
        grouped: dict[int, list[int]] = defaultdict(list)
        for e in subset:
            i, j = self.pair_of(e)
            grouped[i].append(j)
        return grouped

    def utilities(self, subset, scenarios: ScenarioSet) -> np.ndarray:
        """Sum over the served demands of the best efficiency of their vehicles.

        The per-demand maxima are added in the order in which iterating the
        frozenset first visits each demand. That order depends on how the set
        was built (``frozenset(ids)`` and ``frozenset(reversed(ids))`` may
        differ), and so do the last bits of the sum. The recorded CLI outputs
        depend on this order, so it stays; ``extension_utilities``
        reproduces it.
        """
        subset = self.ground.check_subset(subset)
        pairs = self._pairs(scenarios)
        total = np.zeros(len(scenarios))
        for i, js in self._by_demand(subset).items():
            total += pairs[[i * self.vehicles + j for j in js]].max(axis=0)
        return total

    def extension_utilities(self, groups, scenarios: ScenarioSet) -> np.ndarray:
        """The rows of every group, one group at a time (see ``_extend``),
        each group's subset validated with ``check_subset``."""
        out = np.zeros((sum(len(c) for _, c in groups), len(scenarios)))
        pairs = self._pairs(scenarios)
        start = 0
        for subset, candidates in groups:
            self._extend(self.ground.check_subset(subset), candidates, pairs,
                         out[start:start + len(candidates)])
            start += len(candidates)
        return out

    def _extend(self, subset: frozenset, candidates, pairs: np.ndarray,
                out: np.ndarray) -> None:
        """Add to the zero rows ``out`` the rows ``utilities(subset | {e})``,
        bit for bit, for every candidate e.

        ``pairs`` is the batch as ``_pairs`` gives it: the samples of pair e
        are its contiguous row e, so each candidate's samples are one row
        gathered by ``np.take``. A batch that ``sample_scenarios`` did not
        make, such as a sample-major (samples, N, R) array, is copied to
        that layout once per hook call and scores the same bits. The
        per-demand maxima of ``subset`` are taken once. A candidate's
        demand gets its new maximum by ``np.maximum``, which is exact, and
        each row adds its per-demand rows in the order in which iterating
        ``subset | {e}`` visits the demands, one position at a time over all
        rows; a row with one demand fewer adds a zero row last, which
        changes no bit (a running sum from +0.0 is never -0.0). Candidates go
        in chunks whose (candidates x samples) temporaries stay within
        ``sga._GROUP_FLOATS`` floats.
        """
        n, r = pairs.shape[1], self.vehicles
        by_demand = self._by_demand(subset)
        slot = {i: p for p, i in enumerate(by_demand)}
        served = len(slot)
        step = max(1, sga._GROUP_FLOATS // n)
        # rows 0..served-1: the subset's maxima; row served: zeros; then the
        # chunk's candidate rows
        bank = np.zeros((served + 1 + min(step, len(candidates)), n))
        for i, js in by_demand.items():
            bank[slot[i]] = pairs[[i * r + j for j in js]].max(axis=0)
        for lo in range(0, len(candidates), step):
            chunk = candidates[lo:lo + step]
            ids = np.asarray(chunk, dtype=np.intp)
            demand = ids // r
            fresh = bank[served + 1:served + 1 + len(chunk)]
            np.take(pairs, ids, axis=0, out=fresh)
            held = np.array([slot.get(i, -1) for i in demand.tolist()], dtype=np.intp)
            old = held >= 0
            fresh[old] = np.maximum(fresh[old], bank[held[old]])
            order = np.full((len(chunk), served + 1), served, dtype=np.intp)
            for c, (e, own) in enumerate(zip(chunk, demand.tolist())):
                visits = dict.fromkeys(x // r for x in subset | {e})
                order[c, :len(visits)] = [served + 1 + c if i == own else slot[i]
                                          for i in visits]
            rows = out[lo:lo + len(chunk)]
            for position in order.T:
                rows += bank[position]

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
                   seed=_integer(data.get("seed", 0), "seed"))
        if ("ground_size" in data
                and _integer(data["ground_size"], "ground_size") != inst.ground.size):
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
        for name in ("rows", "cols"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid needs at least one row and one column")
        object.__setattr__(self, "obstacles",
                           frozenset(_integer(c, "obstacle cell") for c in self.obstacles))
        for c in self.obstacles:
            if not 0 <= c < self.rows * self.cols:
                raise ValueError(f"obstacle cell {c} outside the grid")

    @classmethod
    def from_rows(cls, rows) -> "OccupancyGrid":
        """Parse rows of 0/1 characters (strings) or 0/1 integers (lists)."""
        parsed = []
        for r, row in enumerate(rows):
            if isinstance(row, str):
                row = row.strip()
                bad = [ch for ch in row if ch not in "01"]
                if bad:
                    raise ValueError(f"grid row {r} {row!r}: a cell must be '0' (free) "
                                     f"or '1' (obstacle), got {bad[0]!r}")
                parsed.append([int(ch) for ch in row])
            else:
                parsed.append([_integer(v, f"grid[{r}] cell") for v in row])
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


def visible_cells(grid: OccupancyGrid, origin: int) -> list[int]:
    """Free cells seen from the origin cell along center-to-center segments.

    A segment is blocked when it crosses some obstacle cell's interior: slab
    clipping against each obstacle square [r, r+1] x [c, c+1]. Grazing a
    cell corner or sliding along an edge has zero interior overlap and does
    not block; with half-integer cell centers the comparisons stay far from
    the epsilon. One array pass clips a chunk of targets against every
    obstacle at once, each (targets x obstacles) temporary within
    ``sga._GROUP_FLOATS`` floats.
    """
    if not grid.is_free(origin):
        raise ValueError(f"origin cell {origin} is not a free cell")
    obstacles = np.divmod(np.array(sorted(grid.obstacles), dtype=np.intp), grid.cols)
    free = np.array(grid.free_cells(), dtype=np.intp)
    ends = np.divmod(free, grid.cols)
    start = np.array(grid.cell_rc(origin), dtype=float) + 0.5
    seen = np.empty(free.size, dtype=bool)
    step = max(1, sga._GROUP_FLOATS // max(1, len(grid.obstacles)))
    for lo in range(0, free.size, step):
        t_lo, t_hi = 0.0, 1.0
        for axis in (0, 1):
            o, p = obstacles[axis], start[axis]
            dd = (ends[axis][lo:lo + step] + 0.5 - p)[:, None]
            # a zero step gives infinities, never NaN (o - p != 0 at a cell
            # center): same signs clear the pair, opposite signs (inside the
            # slab) leave it; t_lo >= 0 and t_hi <= 1 keep t_hi - t_lo off NaN
            with np.errstate(divide="ignore"):
                t1 = (o - p) / dd
                t2 = (o + 1.0 - p) / dd
            t_lo = np.maximum(t_lo, np.minimum(t1, t2))
            t_hi = np.minimum(t_hi, np.maximum(t1, t2))
        seen[lo:lo + step] = ~np.any(t_hi - t_lo > _GEOM_EPS, axis=1)
    return free[seen].tolist()


# --------------------------------------------------------------------------
# sensor coverage
# --------------------------------------------------------------------------

def _sensor_cells(cells, grid: OccupancyGrid | None) -> list[int]:
    """Sensor sites as ints: free cells of the grid, or without one any
    nonnegative cell ids. A ValueError names the first bad entry."""
    cells = [_integer(c, f"sensor_cells[{i}]") for i, c in enumerate(cells)]
    for i, c in enumerate(cells):
        if grid is None and c < 0:
            raise ValueError(f"sensor_cells[{i}] cell {c} is negative")
        if grid is not None and not grid.is_free(c):
            raise ValueError(f"sensor_cells[{i}] cell {c} is not a free cell "
                             f"of the {grid.rows}x{grid.cols} grid")
    return cells


class SensorCoverage(StochasticObjective):
    """Failure-prone sensor placement utility.

    Candidate i covers ``coverage_sets[i]`` (cell ids) when it works, which
    happens with probability 1 - v_i / v_free where v_i is its coverage size
    and v_free the number of free cells: the wider the view, the likelier the
    failure. Scenario payload: a length-N vector of success bits.

    Utilities are exact integer counts, so ``utility_rounding`` is 0.
    """

    utility_rounding = 0.0

    def __init__(self, coverage_sets, free_cell_count: int, select: int,
                 grid: OccupancyGrid | None = None, sensor_cells=None,
                 seed: int = 0):
        sets = [tuple(sorted(_integer(c, f"coverage_sets[{i}] cell") for c in s))
                for i, s in enumerate(coverage_sets)]
        if not sets:
            raise ValueError("at least one candidate sensor is required")
        for i, s in enumerate(sets):
            for c in s:
                if grid is None and c < 0:
                    raise ValueError(f"coverage_sets[{i}] cell {c} is negative")
                if grid is not None and not grid.is_free(c):
                    raise ValueError(f"coverage_sets[{i}] cell {c} is not a free cell "
                                     f"of the {grid.rows}x{grid.cols} grid")
        n = len(sets)
        select = _integer(select, "select")
        if not 1 <= select <= n:
            raise ValueError(
                f"number of sensors to place must lie in 1..{n}, got {select}")
        free_cell_count = _integer(free_cell_count, "free_cell_count")
        if free_cell_count < 1:
            raise ValueError("free cell count must be positive")
        if free_cell_count >= MAX_FREE_CELLS:
            raise ValueError(
                f"free cell count {free_cell_count} is too large: coverage counts "
                f"are exact in float32 only below {MAX_FREE_CELLS} (2**24) cells")
        universe = sorted(set().union(*(set(s) for s in sets)) or {0})
        if len(universe) > free_cell_count:
            raise ValueError(
                f"the coverage sets span {len(universe)} cells, more than the "
                f"{free_cell_count} free cells")
        if sensor_cells is not None and len(sensor_cells) != n:
            raise ValueError(f"sensor_cells holds {len(sensor_cells)} entries; "
                             f"one per coverage set ({n}) is required")
        self.coverage_sets = sets
        self.free_cell_count = free_cell_count
        self.select = select
        self.grid = grid
        self.sensor_cells = (None if sensor_cells is None
                             else _sensor_cells(sensor_cells, grid))
        self.seed = int(seed)

        col = {cell: idx for idx, cell in enumerate(universe)}
        cover = np.zeros((n, len(universe)), dtype=bool)
        for i, s in enumerate(sets):
            for cell in s:
                cover[i, col[cell]] = True
        self._cover_f = cover.astype(np.float32)
        sizes = cover.sum(axis=1)
        self._sizes_f = sizes.astype(np.float32)
        self.success_prob = 1.0 - sizes / free_cell_count

        self.ground = GroundSet(n, tuple(f"s{i}" for i in range(n)))
        self.matroid = UniformMatroid(self.ground, self.select)
        self.gamma_hint = float(free_cell_count)

    @classmethod
    def generate(cls, candidates: int, select: int, grid: OccupancyGrid,
                 seed: int = 0) -> "SensorCoverage":
        """Sample distinct candidate sites among the free cells, then trace visibility."""
        candidates = _integer(candidates, "candidates")
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

    def _patterns(self, subset, scenarios: ScenarioSet) -> tuple[np.ndarray, np.ndarray]:
        """(pattern, covered): each sample's failure pattern of the subset's
        sensors, and per pattern the float32 0/1 cells its working sensors see.

        f(S, y) depends on y only through which sensors of S work. Each
        sample's bits over the sorted ids fold into an int64 code, a chunk of
        ids at a time; ``np.unique`` numbers the distinct codes, and the
        number from the last chunk is the sample's pattern. A number is below
        the sample count, so ``(pattern << width) | code`` stays below 2**62.
        One sample per pattern stands for it in the coverage matmul.
        """
        ids = sorted(self.ground.check_subset(subset))
        bits = scenarios.data
        pattern = np.zeros(len(scenarios), dtype=np.int64)
        first = np.zeros(1, dtype=np.intp)
        width = 62 - len(scenarios).bit_length()
        for lo in range(0, len(ids), width):
            chunk = ids[lo:lo + width]
            weights = np.int64(1) << np.arange(len(chunk), dtype=np.int64)
            code = bits[:, chunk].astype(np.int64) @ weights
            code |= pattern << len(chunk)
            _, first, pattern = np.unique(code, return_index=True, return_inverse=True)
        covered = bits[first[:, None], ids].astype(np.float32) @ self._cover_f[ids]
        return pattern, np.minimum(covered, 1.0, out=covered)

    def utilities(self, subset, scenarios: ScenarioSet) -> np.ndarray:
        pattern, covered = self._patterns(subset, scenarios)
        return covered.sum(axis=1)[pattern].astype(float)

    def extension_utilities(self, groups, scenarios: ScenarioSet) -> np.ndarray:
        """u(S + e) = u(S) + active_e * (|cover_e| - covered(S) . cover_e).

        Group by group, one matmul scores every candidate against each
        failure pattern of S (see ``_patterns``, which validates S): a
        (patterns x candidates) table whose rows are gathered back to the
        samples before ``active_e`` and u(S) enter. Every term is an integer
        count below 2**24, so float32 holds it exactly in any order and each
        row is bit-equal to ``utilities(S | {e})``.
        """
        out = np.empty((sum(len(c) for _, c in groups), len(scenarios)))
        start = 0
        for subset, candidates in groups:
            pattern, covered = self._patterns(subset, scenarios)
            fresh = covered @ self._cover_f[candidates].T
            np.subtract(self._sizes_f[candidates], fresh, out=fresh)
            fresh = fresh.take(pattern, axis=0)
            fresh *= scenarios.data[:, candidates]
            fresh += covered.sum(axis=1)[pattern, None]
            out[start:start + len(candidates)] = fresh.T
            start += len(candidates)
        return out

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
        select = data["select"]
        seed = _integer(data.get("seed", 0), "seed")
        sensor_cells = data.get("sensor_cells")
        if sensor_cells is not None and not isinstance(sensor_cells, list):
            raise ValueError("sensor_cells must be a list of cell ids, got "
                             f"{type(sensor_cells).__name__}")
        if "coverage_sets" in data:
            if "free_cell_count" in data:
                free_count = data["free_cell_count"]
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
        coverage = [visible_cells(grid, c) for c in _sensor_cells(sensor_cells, grid)]
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
