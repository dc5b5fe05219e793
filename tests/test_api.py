"""The top-level API: the names qmcflow exports and where each lives.

The package builds its __all__ from the modules' own, so this literal
list is what notices a module edit that changes the top-level API.
"""

from __future__ import annotations

import inspect
from importlib import import_module

import qmcflow

# Each exported name under the module that defines it.
HOMES = {
    "checker": [
        "CAPACITY",
        "CONSERVATION",
        "CUT",
        "DEMAND",
        "STRICT_CONSERVATION",
        "Violation",
        "ViolationReport",
        "check_cut",
        "check_flow",
    ],
    "core": [
        "Arc",
        "Commodity",
        "Defect",
        "FlowOverTime",
        "Instance",
        "Network",
        "ParseError",
        "Piece",
        "StepFunction",
        "StorageMode",
        "ValidationReport",
        "format_rational",
        "parse_flow",
        "parse_instance",
        "rational",
        "reachable_nodes",
        "serialize_flow",
        "serialize_instance",
        "step_function",
        "validate_instance",
    ],
    "expansion": ["ExpandedNetwork", "build_time_expanded"],
    "instances": [
        "CycleParams",
        "cycle_instance",
        "random_instance",
        "wait_schedule_with_storage",
        "wave_schedule_no_storage",
    ],
    "solver": [
        "NoHorizonFound",
        "SpeedupReport",
        "Verdict",
        "gap_csv",
        "gap_sweep",
        "min_feasible_horizon",
        "probe_horizon",
        "speedup_ratio",
    ],
}
EXPORTED = sorted([name for names in HOMES.values() for name in names])


def test_the_exported_names():
    assert len(EXPORTED) == 44
    assert sorted(qmcflow.__all__) == EXPORTED


def test_each_name_is_its_home_modules_object():
    for module_name, names in HOMES.items():
        module = import_module(f"qmcflow.{module_name}")
        for name in names:
            value = getattr(module, name)
            assert getattr(qmcflow, name) is value, name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from qmcflow import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == EXPORTED
