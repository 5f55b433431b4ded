"""Case-study objectives: frozen hand computations for the vehicle assignment
intervals and sensor visibility / failure model, plus instance file round trips."""
from __future__ import annotations

import numpy as np
import pytest

from cvargreedy import PartitionMatroid, ScenarioSet, UniformMatroid
from cvargreedy import problems
from cvargreedy.problems import (OccupancyGrid, SensorCoverage,
                                 VehicleAssignment, load_instance,
                                 visible_cells)


# --------------------------------------------------------------- vehicles

def test_vehicle_interval_formulas():
    # one demand at the origin, vehicles at distance 2 and 4
    inst = VehicleAssignment([[0.0, 0.0]], [[2.0, 0.0], [0.0, 4.0]])
    np.testing.assert_allclose(inst.mean_eff, [[5.0, 2.5]])
    # spread = mean**2.5 / max(mean); the widest pair clamps its low end at 0
    np.testing.assert_allclose(inst.eff_high, [[5.0 + 5.0**1.5,
                                                2.5 + 2.5**2.5 / 5.0]])
    np.testing.assert_allclose(inst.eff_low, [[0.0, 2.5 - 2.5**2.5 / 5.0]])
    assert inst.eff_low[0, 1] > 0.0
    assert inst.gamma_hint == pytest.approx(5.0 + 5.0**1.5)


def test_vehicle_interval_widest_pair_clamped():
    inst = VehicleAssignment([[0.0, 0.0]], [[1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(inst.mean_eff, [[10.0, 5.0]])
    np.testing.assert_allclose(inst.eff_low, [[0.0, 0.0]])
    np.testing.assert_allclose(inst.eff_high,
                               [[10.0 + 10.0**1.5, 5.0 + 5.0**2.5 / 10.0]])


def test_vehicle_rejects_zero_distance():
    with pytest.raises(ValueError, match="regenerate"):
        VehicleAssignment([[1.0, 2.0]], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        VehicleAssignment(np.zeros((0, 2)), [[1.0, 2.0]])
    with pytest.raises(ValueError):
        VehicleAssignment([[0.0, 0.0, 0.0]], [[1.0, 2.0]])
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            VehicleAssignment([[0.0, bad]], [[1.0, 2.0]])


def test_vehicle_structure():
    inst = VehicleAssignment.generate(vehicles=3, demands=2, seed=11)
    assert inst.ground.size == 6
    assert inst.ground.label(inst.pair_id(1, 2)) == "d1-v2"
    assert inst.pair_of(inst.pair_id(1, 2)) == (1, 2)
    assert isinstance(inst.matroid, PartitionMatroid)
    # one unit-capacity block per vehicle: two pairs sharing a vehicle clash
    assert not inst.matroid.is_independent({inst.pair_id(0, 1), inst.pair_id(1, 1)})
    assert inst.matroid.is_independent({inst.pair_id(0, 1), inst.pair_id(1, 2)})
    assert np.all(inst.eff_low >= 0.0)
    assert np.all(inst.eff_high > inst.eff_low)
    # drawn efficiencies stay inside the intervals and below the range hint
    sc = inst.sample_scenarios(50, seed=3)
    assert np.all(sc.data >= inst.eff_low) and np.all(sc.data <= inst.eff_high)
    full = inst.utilities(frozenset(range(6)), sc)
    assert np.all(full <= inst.gamma_hint + 1e-9)


def test_vehicle_generate_deterministic():
    a = VehicleAssignment.generate(2, 2, seed=5)
    b = VehicleAssignment.generate(2, 2, seed=5)
    np.testing.assert_array_equal(a.vehicle_xy, b.vehicle_xy)
    np.testing.assert_array_equal(a.demand_xy, b.demand_xy)


def one_scenario(payload):
    return ScenarioSet(np.asarray(payload)[None], 1, seed=0)


def test_vehicle_evaluate_best_vehicle_per_demand():
    inst = VehicleAssignment([[0.0, 0.0], [5.0, 5.0]], [[1.0, 0.0], [0.0, 3.0]])
    scenario = one_scenario([[3.0, 1.0], [2.0, 5.0]])
    p = inst.pair_id
    assert inst.utilities({p(0, 0), p(0, 1), p(1, 1)}, scenario).tolist() == [8.0]
    assert inst.utilities({p(0, 0)}, scenario).tolist() == [3.0]
    assert inst.utilities({p(0, 1)}, scenario).tolist() == [1.0]
    assert inst.utilities(frozenset(), scenario).tolist() == [0.0]


def test_vehicle_generate_resamples_coincident_position(monkeypatch):
    draws = [
        np.array([[1.0, 1.0]]),                  # demand positions
        np.array([[1.0, 1.0], [3.0, 1.0]]),      # vehicle 0 lands on the demand
        np.array([2.0, 2.0]),                    # replacement for vehicle 0
    ]

    class FakeRng:
        def uniform(self, lo, hi, size=None):
            return draws.pop(0)

    monkeypatch.setattr(problems.np.random, "default_rng", lambda s=None: FakeRng())
    inst = VehicleAssignment.generate(vehicles=2, demands=1, seed=0)
    np.testing.assert_array_equal(inst.vehicle_xy, [[2.0, 2.0], [3.0, 1.0]])
    assert not draws


# ------------------------------------------------------------------ grids

def test_grid_parse_round_trip():
    rows = ["0010", "0000", "1001"]
    grid = OccupancyGrid.from_rows(rows)
    assert (grid.rows, grid.cols) == (3, 4)
    assert grid.obstacles == {2, 8, 11}
    assert grid.to_rows() == rows
    assert OccupancyGrid.from_rows([[0, 0, 1, 0], [0, 0, 0, 0],
                                    [1, 0, 0, 1]]) == grid
    assert grid.cell_rc(9) == (2, 1)
    assert grid.is_free(9) and not grid.is_free(8) and not grid.is_free(12)
    assert len(grid.free_cells()) == 9


def test_grid_validation():
    with pytest.raises(ValueError):
        OccupancyGrid.from_rows([])
    with pytest.raises(ValueError):
        OccupancyGrid.from_rows(["01", "0"])
    with pytest.raises(ValueError):
        OccupancyGrid.from_rows(["02"])
    with pytest.raises(ValueError):
        OccupancyGrid(2, 2, frozenset({4}))


def test_visibility_open_grid():
    grid = OccupancyGrid.from_rows(["0000", "0000", "0000"])
    assert visible_cells(grid, 5) == list(range(12))


def test_visibility_blocking_row():
    grid = OccupancyGrid.from_rows(["00100"])
    assert visible_cells(grid, 0) == [0, 1]
    assert visible_cells(grid, 4) == [3, 4]
    with pytest.raises(ValueError):
        visible_cells(grid, 2)


def test_visibility_through_diagonal_corner():
    # two obstacles touching at one corner leave a zero-width diagonal gap;
    # grazing the corner does not block the view
    grid = OccupancyGrid.from_rows(["01", "10"])
    assert visible_cells(grid, 0) == [0, 3]
    assert visible_cells(grid, 3) == [0, 3]


def test_visibility_around_block():
    grid = OccupancyGrid.from_rows(["000", "010", "000"])
    seen = visible_cells(grid, 0)
    assert 8 not in seen          # opposite corner is behind the block
    assert {0, 1, 2, 3, 6} <= set(seen)


# ---------------------------------------------------------------- sensors

def sealed_grid():
    """12 x 12 grid with 100 free cells; cell (2, 2) is walled in completely."""
    rows = np.zeros((12, 12), dtype=int)
    rows[1:4, 1:4] = 1
    rows[2, 2] = 0                # the sealed cell itself stays free
    rows[6:12, 6:12] = 1          # 36 more obstacles for a round free count
    return OccupancyGrid.from_rows(rows.tolist())


def test_sealed_sensor_probability():
    grid = sealed_grid()
    assert len(grid.free_cells()) == 100
    sealed = 2 * 12 + 2
    assert visible_cells(grid, sealed) == [sealed]
    inst = SensorCoverage.generate(candidates=100, select=3, grid=grid, seed=0)
    idx = inst.sensor_cells.index(sealed)
    assert inst.success_prob[idx] == 0.99
    assert np.all((0.0 <= inst.success_prob) & (inst.success_prob <= 1.0))


def test_sensor_structure_and_probabilities():
    inst = SensorCoverage([(1, 2), (2, 3), (5,)], free_cell_count=10, select=2)
    np.testing.assert_allclose(inst.success_prob, [0.8, 0.8, 0.9])
    assert inst.matroid == UniformMatroid(inst.ground, 2)
    assert inst.gamma_hint == 10.0
    assert inst.ground.labels == ("s0", "s1", "s2")


def test_sensor_evaluate_union_of_survivors():
    inst = SensorCoverage([(1, 2), (2, 3)], free_cell_count=10, select=2)
    def utility(subset, bits):
        return inst.utilities(subset, one_scenario(np.array(bits, dtype=np.uint8))).tolist()

    assert utility({0, 1}, [1, 1]) == [3.0]
    assert utility({0, 1}, [1, 0]) == [2.0]
    assert utility({0, 1}, [0, 0]) == [0.0]
    assert utility(frozenset(), [1, 1]) == [0.0]


def test_sensor_failure_rate_matches_probability():
    inst = SensorCoverage([tuple(range(6))], free_cell_count=10, select=1)
    sc = inst.sample_scenarios(4000, seed=8)
    assert sc.data.mean() == pytest.approx(0.4, abs=0.03)


def test_sensor_validation():
    with pytest.raises(ValueError):
        SensorCoverage([], free_cell_count=5, select=1)
    with pytest.raises(ValueError):
        SensorCoverage([(0,)], free_cell_count=5, select=2)
    with pytest.raises(ValueError):
        SensorCoverage([(0, 1, 2)], free_cell_count=2, select=1)
    grid = OccupancyGrid.from_rows(["00", "00"])
    with pytest.raises(ValueError):
        SensorCoverage.generate(candidates=5, select=1, grid=grid)
    with pytest.raises(ValueError):
        SensorCoverage.generate(candidates=1, select=1,
                                grid=OccupancyGrid.from_rows(["11"]))


# ----------------------------------------------------------- file formats

def test_vehicle_json_round_trip():
    inst = VehicleAssignment.generate(3, 2, seed=21)
    back = load_instance(inst.to_json())
    assert isinstance(back, VehicleAssignment)
    np.testing.assert_array_equal(back.mean_eff, inst.mean_eff)
    np.testing.assert_array_equal(back.eff_high, inst.eff_high)
    assert back.matroid == inst.matroid
    assert back.gamma_hint == inst.gamma_hint
    sc = inst.sample_scenarios(5, seed=1)
    np.testing.assert_array_equal(back.utilities({0, 3}, sc),
                                  inst.utilities({0, 3}, sc))


def test_sensor_json_round_trip_explicit_sets():
    grid = OccupancyGrid.from_rows(["000", "010", "000"])
    inst = SensorCoverage.generate(candidates=4, select=2, grid=grid, seed=2)
    back = load_instance(inst.to_json())
    assert isinstance(back, SensorCoverage)
    assert back.coverage_sets == inst.coverage_sets
    np.testing.assert_array_equal(back.success_prob, inst.success_prob)
    assert back.matroid == inst.matroid


def test_sensor_json_round_trip_from_grid_only():
    grid = OccupancyGrid.from_rows(["000", "010", "000"])
    inst = SensorCoverage.generate(candidates=4, select=2, grid=grid, seed=2)
    data = inst.to_json()
    del data["coverage_sets"]
    del data["free_cell_count"]
    back = load_instance(data)
    assert back.coverage_sets == inst.coverage_sets
    assert back.free_cell_count == inst.free_cell_count


def test_sensor_json_missing_pieces():
    with pytest.raises(ValueError):
        SensorCoverage.from_json({"problem": "sensor", "select": 1,
                                  "coverage_sets": [[0]]})
    with pytest.raises(ValueError):
        SensorCoverage.from_json({"problem": "sensor", "select": 1})


def test_load_instance_errors():
    with pytest.raises(ValueError, match="unknown problem"):
        load_instance({"problem": "warehouse"})
    with pytest.raises(ValueError, match="JSON object"):
        load_instance([1])
    inst = VehicleAssignment.generate(2, 2, seed=0)
    data = inst.to_json()
    data["matroid"] = {"type": "uniform", "k": 2}
    with pytest.raises(ValueError, match="does not match"):
        load_instance(data)
    data = inst.to_json()
    data["ground_size"] = 7
    with pytest.raises(ValueError):
        load_instance(data)
