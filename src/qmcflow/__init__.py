"""Exact tools for multi-commodity quickest flows over time.

The package models networks whose arcs have capacities and transit
times, flows over time on them (with or without intermediate storage),
a checker of flows and cuts, which prove horizons feasible and
infeasible, a time-expanded LP feasibility solver over exact rational
arithmetic, instance generators including a cycle family whose
storage speed-up approaches 2, and a CLI tying everything together.
"""

from __future__ import annotations

from .checker import (
    CAPACITY,
    CONSERVATION,
    CUT,
    DEMAND,
    STRICT_CONSERVATION,
    Violation,
    ViolationReport,
    check_cut,
    check_flow,
)
from .core import (
    Arc,
    Commodity,
    Defect,
    FlowOverTime,
    Instance,
    Network,
    ParseError,
    Piece,
    StepFunction,
    StorageMode,
    ValidationReport,
    format_rational,
    parse_flow,
    parse_instance,
    rational,
    reachable_nodes,
    serialize_flow,
    serialize_instance,
    step_function,
    validate_instance,
)
from .expansion import ExpandedNetwork, build_time_expanded
from .instances import (
    CycleParams,
    cycle_instance,
    random_instance,
    wait_schedule_with_storage,
    wave_schedule_no_storage,
)
from .solver import (
    NoHorizonFound,
    SpeedupReport,
    Verdict,
    gap_csv,
    gap_sweep,
    min_feasible_horizon,
    probe_horizon,
    speedup_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "CAPACITY",
    "CONSERVATION",
    "CUT",
    "Commodity",
    "CycleParams",
    "DEMAND",
    "Defect",
    "ExpandedNetwork",
    "FlowOverTime",
    "Instance",
    "Network",
    "NoHorizonFound",
    "ParseError",
    "Piece",
    "STRICT_CONSERVATION",
    "SpeedupReport",
    "StepFunction",
    "StorageMode",
    "ValidationReport",
    "Verdict",
    "Violation",
    "ViolationReport",
    "build_time_expanded",
    "check_cut",
    "check_flow",
    "cycle_instance",
    "format_rational",
    "gap_csv",
    "gap_sweep",
    "min_feasible_horizon",
    "parse_flow",
    "parse_instance",
    "probe_horizon",
    "random_instance",
    "rational",
    "reachable_nodes",
    "serialize_flow",
    "serialize_instance",
    "speedup_ratio",
    "step_function",
    "validate_instance",
    "wait_schedule_with_storage",
    "wave_schedule_no_storage",
]
