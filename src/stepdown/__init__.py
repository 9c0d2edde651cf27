"""Multistage step-down multiple hypothesis testing with FWE control.

The package provides fixed-sample and group-sequential step-down
procedures, calibration of the critical-value boundaries they test
against, a three-endpoint trial simulator with a mergeable Monte Carlo
harness, and a sequential rule classifying a normal mean into ordered
intervals, implemented two independent ways.
"""

from .boundary import (
    CalibrationError,
    CriticalFunction,
    GridError,
    calibrate_levels,
    crossing_probability,
    normal_quantile,
    shape_multipliers,
)
from .core import (
    HypothesisFamily,
    SampleSchedule,
    StageRecord,
    StatisticPaths,
    TrialResult,
)
from .harness import (
    PROCEDURES,
    ScenarioSpec,
    SimulationSummary,
    empty_summary,
    merge,
    needed_levels,
    run_scenario,
    run_scenario_parallel,
)
from .paulson import (
    PaulsonConfig,
    PaulsonResult,
    classify_by_mean,
    classify_paths,
    paulson_via_stepdown,
    run_paulson_direct,
    simulate_observations,
)
from .procedures import (
    CLOSED,
    HOLM,
    MULT,
    ProcedureVariant,
    holm_closed,
    holm_fixed,
    run_multistage,
    run_multistage_batch,
    stage_levels,
)
from .trial import RngStream, ScenarioParams, generate_batch, generate_paths

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "CriticalFunction",
    "GridError",
    "calibrate_levels",
    "crossing_probability",
    "normal_quantile",
    "shape_multipliers",
    "HypothesisFamily",
    "SampleSchedule",
    "StageRecord",
    "StatisticPaths",
    "TrialResult",
    "PROCEDURES",
    "ScenarioSpec",
    "SimulationSummary",
    "empty_summary",
    "merge",
    "needed_levels",
    "run_scenario",
    "run_scenario_parallel",
    "PaulsonConfig",
    "PaulsonResult",
    "classify_by_mean",
    "classify_paths",
    "paulson_via_stepdown",
    "run_paulson_direct",
    "simulate_observations",
    "CLOSED",
    "HOLM",
    "MULT",
    "ProcedureVariant",
    "holm_closed",
    "holm_fixed",
    "run_multistage",
    "run_multistage_batch",
    "stage_levels",
    "RngStream",
    "ScenarioParams",
    "generate_batch",
    "generate_paths",
    "__version__",
]
