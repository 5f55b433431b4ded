"""Case-study objectives: frozen hand computations for the vehicle assignment
intervals and sensor visibility / failure model, plus instance file round trips."""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvargreedy import PartitionMatroid, ScenarioSet, UniformMatroid
from cvargreedy import problems, sga
from cvargreedy.problems import (OccupancyGrid, SensorCoverage,
                                 VehicleAssignment, load_instance,
                                 visible_cells)
from conftest import reference_visible_cells


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
    # the in-place draw gives the same bits as the plain interval formula
    u = np.random.default_rng(3).random((50, 2, 3))
    np.testing.assert_array_equal(
        sc.data, inst.eff_low + u * (inst.eff_high - inst.eff_low))
    full = inst.utilities(frozenset(range(6)), sc)
    assert np.all(full <= inst.gamma_hint + 1e-9)


# 16,384 // (3 x 4) = 1,365 samples per draw of sample_scenarios
@pytest.mark.parametrize("count", [1, 1364, 1365, 1366, 2731])
@pytest.mark.parametrize("budget", [None, 5])
def test_vehicle_batch_is_one_draw_stored_pair_major(count, budget):
    # a budget below one sample draws one sample at a time
    inst = VehicleAssignment.generate(4, 3, seed=2)
    with mock.patch.object(sga, "_GROUP_FLOATS", budget or sga._GROUP_FLOATS):
        sc = inst.sample_scenarios(count, seed=8)
    u = np.random.default_rng(8).random((count, 3, 4))
    assert np.array_equal(sc.data, u * (inst.eff_high - inst.eff_low) + inst.eff_low)
    pairs = inst._pairs(sc)
    assert pairs.flags.c_contiguous and np.shares_memory(pairs, sc.data)
    assert np.array_equal(pairs[inst.pair_id(2, 1)], sc.data[:, 2, 1])


def test_vehicle_rows_of_a_sample_major_batch():
    # a batch not made by sample_scenarios scores through a copy, bit for bit
    inst = VehicleAssignment.generate(5, 4, seed=3)
    sc = inst.sample_scenarios(300, seed=1)
    copy = ScenarioSet(np.ascontiguousarray(sc.data), 300, 1)
    assert not np.shares_memory(inst._pairs(copy), copy.data)
    rng = np.random.default_rng(0)
    for size in (0, 1, 3, 6):
        subset = frozenset(rng.choice(20, size, replace=False).tolist())
        candidates = [e for e in range(20) if e not in subset]
        assert np.array_equal(inst.utilities(subset, copy), inst.utilities(subset, sc))
        assert np.array_equal(inst.extension_utilities([(subset, candidates)], copy),
                              inst.extension_utilities([(subset, candidates)], sc))


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


@pytest.mark.parametrize("rows, message", [
    (["00", "0\u0661"], r"grid row 1 '0\u0661': .* got '\u0661'"),  # an Arabic-Indic one
    (["0a"], r"grid row 0 '0a': .* got 'a'"),
    (["01", " 1 0"], r"grid row 1 '1 0': .* got ' '"),
    (["0+"], r"grid row 0 '0\+': .* got '\+'"),
])
def test_grid_string_rows_hold_only_0_and_1(rows, message):
    with pytest.raises(ValueError, match=message):
        OccupancyGrid.from_rows(rows)


@pytest.mark.parametrize("rows, cols, obstacles, message", [
    (2.5, 3, frozenset(), r"rows must be an integer, got 2.5"),
    (True, 3, frozenset(), r"rows must be an integer, got True"),
    (2, 3.5, frozenset(), r"cols must be an integer, got 3.5"),
    (2, 3, frozenset({1.5}), r"obstacle cell must be an integer, got 1.5"),
])
def test_grid_sizes_and_obstacles_are_integers(rows, cols, obstacles, message):
    with pytest.raises(ValueError, match=message):
        OccupancyGrid(rows, cols, obstacles)
    # integral floats and numpy ints are read as ints
    grid = OccupancyGrid(2.0, np.int64(3), frozenset({1.0, np.int32(4)}))
    assert (grid.rows, grid.cols, grid.obstacles) == (2, 3, frozenset({1, 4}))
    assert type(grid.rows) is type(grid.cols) is int
    assert grid.free_cells() == [0, 2, 3, 5]


@pytest.mark.parametrize("vehicles, demands, message", [
    (2.5, 3, r"vehicles must be an integer, got 2.5"),
    (True, 3, r"vehicles must be an integer, got True"),
    (3, 1.5, r"demands must be an integer, got 1.5"),
    (3, True, r"demands must be an integer, got True"),
])
def test_generated_vehicle_counts_are_integers(vehicles, demands, message):
    with pytest.raises(ValueError, match=message):
        VehicleAssignment.generate(vehicles, demands)
    assert (VehicleAssignment.generate(3.0, 2.0, seed=5).to_json()
            == VehicleAssignment.generate(3, 2, seed=5).to_json())


@pytest.mark.parametrize("candidates", [2.5, True])
def test_generated_sensor_candidate_count_is_an_integer(candidates):
    grid = OccupancyGrid.from_rows(["000", "000"])
    with pytest.raises(ValueError, match=f"candidates must be an integer, got {candidates}"):
        SensorCoverage.generate(candidates=candidates, select=1, grid=grid)
    assert (SensorCoverage.generate(candidates=2.0, select=1, grid=grid, seed=3).to_json()
            == SensorCoverage.generate(candidates=2, select=1, grid=grid, seed=3).to_json())


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


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12), cols=st.integers(1, 12),
       density=st.sampled_from([0.0, 0.15, 0.4, 0.8]),
       budget=st.sampled_from([1, 3, 17, 2**14]))
def test_visibility_matches_per_segment_reference(seed, rows, cols, density, budget):
    # 1x1 grids, single rows and columns, obstacle-free grids, and chunks of
    # one target up to every target at once
    rng = np.random.default_rng(seed)
    cells = (rng.random((rows, cols)) < density).astype(int)
    cells.flat[rng.integers(rows * cols)] = 0  # at least one free origin
    grid = OccupancyGrid.from_rows(cells.tolist())
    free = grid.free_cells()
    for origin in rng.choice(free, size=min(3, len(free)), replace=False).tolist():
        with mock.patch.object(sga, "_GROUP_FLOATS", budget):
            seen = visible_cells(grid, origin)
        assert seen == reference_visible_cells(grid, origin)
        assert origin in seen


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


def sensor_doc():
    """A sensor instance file on a 3x4 grid with one obstacle (cell 5)."""
    grid = OccupancyGrid.from_rows(["0000", "0100", "0000"])
    return SensorCoverage.generate(candidates=4, select=2, grid=grid, seed=1).to_json()


@pytest.mark.parametrize("field,value,message", [
    ("cell", 0.5, r"coverage_sets\[0\] cell must be an integer, got 0.5"),
    ("cell", -1, r"coverage_sets\[0\] cell -1 is not a free cell of the 3x4 grid"),
    ("cell", 10**6, r"coverage_sets\[0\] cell 1000000 is not a free cell"),
    ("cell", 5, r"coverage_sets\[0\] cell 5 is not a free cell"),
    ("select", 2.7, r"select must be an integer, got 2.7"),
    ("free_cell_count", float("inf"), r"free_cell_count must be an integer, got infinity"),
    # a file with coverage_sets keeps its sensor cells only as labels, but
    # they must still be one free cell per coverage set
    ("sensor_cells", [0], r"sensor_cells holds 1 entries; one per coverage set \(4\)"),
    ("sensor_cells", [0, 1, 2, 3, 4], r"sensor_cells holds 5 entries"),
    ("sensor_cells", [-5] * 4, r"sensor_cells\[0\] cell -5 is not a free cell of the 3x4 grid"),
    ("sensor_cells", [0, 1, 2, 5], r"sensor_cells\[3\] cell 5 is not a free cell"),
    ("sensor_cells", [0, 1, 2, 12], r"sensor_cells\[3\] cell 12 is not a free cell"),
    ("sensor_cells", [0, 1.5, 2, 3], r"sensor_cells\[1\] must be an integer, got 1.5"),
    ("sensor_cells", 3, r"sensor_cells must be a list of cell ids, got int"),
    ("gridless sensor_cells", [0, 1, 2, -1], r"sensor_cells\[3\] cell -1 is negative"),
    ("gridless sensor_cells", [0], r"sensor_cells holds 1 entries"),
    # a grid-only file traces each sensor's view from its cell
    ("grid-only sensor_cells", [0, 1, 2, 5], r"sensor_cells\[3\] cell 5 is not a free cell"),
    ("grid-only sensor_cells", [0, -1], r"sensor_cells\[1\] cell -1 is not a free cell"),
    # a string is not read as rows of one character each
    ("grid", "0101", r"the grid must be a list of rows, got str"),
    ("grid", {"0": "01"}, r"the grid must be a list of rows, got dict"),
    ("grid", [5], r"grid row 0 must be a string or a list of cells, got int"),
    ("grid", ["0000", None], r"grid row 1 must be a string or a list of cells, got NoneType"),
])
def test_sensor_file_values_are_checked(field, value, message):
    doc = sensor_doc()
    if field == "cell":
        doc["coverage_sets"][0][0] = value
    elif field == "gridless sensor_cells":
        del doc["grid"]
        doc["sensor_cells"] = value
    elif field == "grid-only sensor_cells":
        del doc["coverage_sets"], doc["free_cell_count"]
        doc["sensor_cells"] = value
    else:
        doc[field] = value
    with pytest.raises(ValueError, match=message):
        load_instance(doc)


def test_coverage_sets_on_a_grid_take_its_free_cell_count():
    doc = sensor_doc()
    del doc["free_cell_count"]
    inst = load_instance(doc)
    assert inst.free_cell_count == 11  # 3x4 cells, one obstacle
    assert inst.to_json() == sensor_doc()


def test_sensor_cells_without_a_grid_are_nonnegative_integers():
    assert SensorCoverage([(0, 10**6)], free_cell_count=5, select=1.0).select == 1
    with pytest.raises(ValueError, match=r"coverage_sets\[1\] cell -1 is negative"):
        SensorCoverage([(0,), (-1, 2)], free_cell_count=5, select=1)
    with pytest.raises(ValueError, match=r"coverage_sets\[0\] cell must be an integer"):
        SensorCoverage([(True,)], free_cell_count=5, select=1)


_NOT_INTEGERS = st.one_of(
    st.floats().filter(lambda x: not x.is_integer()),
    st.sampled_from([None, True, False, "2", [1], {"a": 1}]))


@st.composite
def corrupt_instances(draw):
    """A valid instance file with one value replaced by a bad one."""
    if draw(st.booleans()):
        doc = VehicleAssignment.generate(3, 2, seed=draw(st.integers(0, 9))).to_json()
        key = draw(st.sampled_from(["demand_positions", "vehicle_positions",
                                    "seed", "ground_size", "blocks", "capacities"]))
        if key in ("seed", "ground_size"):
            doc[key] = draw(_NOT_INTEGERS)
        elif key == "blocks":  # the partition fragment: a block id
            block = doc["matroid"]["blocks"][draw(st.integers(0, 2))]
            block[draw(st.integers(0, 1))] = draw(_NOT_INTEGERS)
        elif key == "capacities":
            doc["matroid"]["capacities"][draw(st.integers(0, 2))] = draw(
                _NOT_INTEGERS | st.integers(max_value=0))
        else:
            row = draw(st.integers(0, len(doc[key]) - 1))
            doc[key][row][draw(st.integers(0, 1))] = draw(st.sampled_from(
                [float("nan"), float("inf"), -float("inf")]))
        return doc
    doc = sensor_doc()
    field = draw(st.sampled_from(["cell", "select", "free_cell_count", "sensor_cells",
                                  "listed_cells", "seed", "ground_size", "k", "grid"]))
    if field == "cell":
        bad = draw(_NOT_INTEGERS | st.integers(max_value=-1)
                   | st.integers(min_value=12) | st.just(5))
        cells = doc["coverage_sets"][draw(st.integers(0, 3))]
        cells[draw(st.integers(0, len(cells) - 1))] = bad
    elif field == "select":
        doc["select"] = draw(_NOT_INTEGERS | st.integers(max_value=0)
                             | st.integers(min_value=5))
    elif field in ("seed", "ground_size"):
        doc[field] = draw(_NOT_INTEGERS)
    elif field == "k":  # the uniform fragment
        doc["matroid"]["k"] = draw(_NOT_INTEGERS | st.integers(max_value=0))
    elif field == "grid":  # rows as lists of 0/1 integers
        rows = [[int(ch) for ch in row] for row in doc["grid"]]
        rows[draw(st.integers(0, 2))][draw(st.integers(0, 3))] = draw(
            _NOT_INTEGERS | st.integers().filter(lambda v: v not in (0, 1)))
        doc["grid"] = rows
    elif field == "free_cell_count":
        doc["free_cell_count"] = draw(_NOT_INTEGERS | st.integers(max_value=0)
                                      | st.integers(min_value=2**24))
    elif field == "listed_cells":  # sensor cells beside the coverage sets
        if draw(st.booleans()):
            del doc["grid"]  # then any nonnegative integer will do
            bad = _NOT_INTEGERS | st.integers(max_value=-1)
        else:
            bad = (_NOT_INTEGERS | st.integers(max_value=-1)
                   | st.integers(min_value=12) | st.just(5))
        cells = doc["sensor_cells"]
        if draw(st.booleans()):
            cells[draw(st.integers(0, 3))] = draw(bad)
        else:  # one entry per coverage set, no more, no fewer
            doc["sensor_cells"] = draw(st.lists(st.integers(0, 11), max_size=8)
                                       .filter(lambda c: len(c) != 4))
    else:  # a grid-only file rebuilds coverage from the sensor cells
        del doc["coverage_sets"], doc["free_cell_count"]
        doc["sensor_cells"][draw(st.integers(0, 3))] = draw(
            _NOT_INTEGERS | st.integers(max_value=-1) | st.integers(min_value=12)
            | st.just(5))
    return doc


@settings(max_examples=150, deadline=None)
@given(corrupt_instances())
def test_load_instance_rejects_bad_values(doc):
    with pytest.raises(ValueError):
        load_instance(doc)


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
