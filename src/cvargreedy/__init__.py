"""Risk-averse maximization of stochastic monotone submodular set functions
under matroid constraints.

The solver maximizes the empirical conditional value at risk (CVaR) of a
stochastic set utility by sweeping a discretized threshold and running a
greedy matroid maximization of the scalarized objective at each grid point.
Includes two built-in problem families (vehicle-to-demand assignment, grid
sensor coverage), a brute-force reference optimizer and curvature-based
approximation guarantees.
"""

__version__ = "0.1.0"

from .greedy import GreedyTrace, greedy_maximize
from .matroid import (ENUMERATION_CAP, EnumerationCapError, GroundSet, Matroid,
                      PartitionMatroid, UniformMatroid, matroid_from_json,
                      matroid_to_json)
from .objective import (ScenarioSet, StochasticObjective, check_sample_count,
                        child_seed)
from .problems import (OccupancyGrid, SensorCoverage, VehicleAssignment,
                       load_instance, visible_cells)
from .risk import (auxiliary_from_values, check_risk_level, cvar_of_set,
                   empirical_cvar, required_sample_count)
from .sga import (AlphaSweepPoint, AlphaSweepTable, BoundReport,
                  BruteForceResult, Curvature, SgaConfig, SgaResult, SweepPoint,
                  additive_penalty, alpha_sweep, approximation_bound,
                  auxiliary_curvature, brute_force_opt, run_sga)
from .synthetic import (RandomCoverageObjective, random_instance, random_matroid)

__all__ = [
    "ENUMERATION_CAP", "AlphaSweepPoint", "AlphaSweepTable", "BoundReport",
    "BruteForceResult", "Curvature", "EnumerationCapError", "GreedyTrace",
    "GroundSet", "Matroid", "OccupancyGrid", "PartitionMatroid",
    "RandomCoverageObjective", "ScenarioSet", "SensorCoverage", "SgaConfig",
    "SgaResult", "StochasticObjective", "SweepPoint", "UniformMatroid",
    "VehicleAssignment", "additive_penalty", "alpha_sweep",
    "approximation_bound", "auxiliary_curvature", "auxiliary_from_values",
    "brute_force_opt", "check_risk_level", "check_sample_count", "child_seed",
    "cvar_of_set", "empirical_cvar", "greedy_maximize",
    "load_instance", "matroid_from_json", "matroid_to_json", "random_instance",
    "random_matroid", "required_sample_count", "run_sga", "visible_cells",
    "__version__",
]
