"""Exact tools for multi-commodity quickest flows over time.

The package models networks whose arcs have capacities and transit
times, flows over time on them (with or without intermediate storage),
a checker of flows and cuts, which prove horizons feasible and
infeasible, a time-expanded LP feasibility solver over exact rational
arithmetic, instance generators including a cycle family whose
storage speed-up approaches 2, and a CLI tying everything together.

Each module's __all__ is its public API. The package re-exports those
of checker, core, instances and solver as they stand, and of
expansion's only ExpandedNetwork and build_time_expanded: its other
names serve the solver.
"""

from __future__ import annotations

from . import checker, core, instances, solver
from .checker import *  # noqa: F403
from .core import *  # noqa: F403
from .expansion import ExpandedNetwork, build_time_expanded
from .instances import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    [*checker.__all__, *core.__all__, *instances.__all__, *solver.__all__]
    + ["ExpandedNetwork", "build_time_expanded"]
)
