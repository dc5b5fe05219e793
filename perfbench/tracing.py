"""Per-layer spans for qmcflow, recorded from outside the package.

The layers are qmcflow's modules. A module calls into another through
the names it imported, so rebinding those names to timing wrappers puts
a span on every call that crosses a layer boundary, without editing the
package. A few calls inside one module are wrapped as well, because the
per-layer metrics split them out (the LP build and the simplex inside a
probe, the three checks inside check_flow), and cli.main is wrapped as
the root of every operation.

Each span records its name (layer.function), the layer that called it,
its parent span, and its start and end. Spans stay in memory until the
run ends. A layer's self time is the time of its spans minus the time
of their child spans. Code reached without crossing a rebound name,
such as a method or property of another module's class, counts toward
the caller's layer.
"""

from __future__ import annotations

import inspect
import json
import time
from importlib import import_module

LAYERS = ("cli", "core", "instances", "expansion", "solver", "checker")

# Names called from inside their own module (or by the benchmark's own
# set-up) that get spans of their own.
_OWN_MODULE = {
    "cli": ("main",),
    "core": ("serialize_instance", "serialize_flow"),
    "instances": (
        "cycle_instance",
        "random_instance",
        "wait_schedule_with_storage",
        "wave_schedule_no_storage",
    ),
    "solver": (
        "min_feasible_horizon",
        "probe_horizon",
        "feasibility_lp_from_expansion",
        "lp_feasible",
    ),
    "checker": ("check_capacity", "check_conservation", "check_demands"),
}


# Conversions of single values, called hundreds of thousands of times
# per round by the checker; spans on them would cost more than the work
# they time. Their time counts toward the caller.
_CONVERSIONS = ("rational", "format_rational")


def _lp_size(args, lp):
    return (len(lp.constraints), lp.num_vars, sum(len(row.coeffs) for row in lp.constraints))


def _flow_pieces(args, report):
    flow = args[0]
    return (sum(len(step.pieces) for step in flow.rates.values()), len(report.violations))


# Counts taken at a span's end from its arguments and result.
_ATTRIBUTES = {
    "solver.feasibility_lp_from_expansion": _lp_size,
    "solver.lp_feasible": lambda args, result: result.feasible,
    "solver.probe_horizon": lambda args, result: result[1].feasible,
    "expansion.build_time_expanded": lambda args, expansion: len(expansion.movement_copies),
    "checker.check_flow": _flow_pieces,
}

# Span fields, kept as lists for speed.
NAME, CALLER, PARENT, START, END, ATTRIBUTE = range(6)


class Tracer:
    """Installs and removes the timing wrappers and holds the spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._wrapped: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            module = import_module(f"qmcflow.{layer}")
            for attribute, value in sorted(vars(module).items()):
                if not inspect.isfunction(value) or not value.__module__.startswith("qmcflow."):
                    continue
                if value.__name__ in _CONVERSIONS:
                    continue
                home = value.__module__.rpartition(".")[2]
                if home != layer or attribute in _OWN_MODULE.get(layer, ()):
                    name = f"{home}.{value.__name__}"
                    self._originals.append((module, attribute, value))
                    self._wrapped.append((module, attribute, self._wrap(value, name, layer)))

    def _wrap(self, function, name: str, caller: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        attribute = _ATTRIBUTES.get(name)

        def traced(*args, **kwargs):
            span = [name, caller, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attribute is not None:
                span[ATTRIBUTE] = attribute(args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attribute, wrapper in self._wrapped:
            setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        for module, attribute, original in self._originals:
            setattr(module, attribute, original)

    def write(self, path, phases: list[tuple[str, int]]) -> None:
        """One JSON line per span; phases are (label, first span index)."""
        bounds = phases + [("", len(self.spans))]
        with open(path, "w", encoding="utf-8") as handle:
            for (label, first), (_, end) in zip(bounds, bounds[1:]):
                for index in range(first, end):
                    span = self.spans[index]
                    handle.write(
                        json.dumps(
                            {
                                "id": index,
                                "phase": label,
                                "name": span[NAME],
                                "caller": span[CALLER],
                                "parent": span[PARENT],
                                "start": span[START],
                                "end": span[END],
                                "attribute": span[ATTRIBUTE],
                            }
                        )
                        + "\n"
                    )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


# Metrics summed span by span in layer_metrics; zero when no span adds to them.
_SUMMED = (
    "solver.simplex_feasible_s",
    "solver.simplex_infeasible_s",
    "solver.lp_rows",
    "solver.lp_cols",
    "solver.lp_nonzeros",
    "solver.probes",
    "solver.probes_infeasible",
    "solver.witness_probe_s",
    "expansion.movement_copies",
    "checker.pieces",
    "checker.violations",
)


def layer_metrics(spans: list[list], first: int, rounds: int, setup: tuple[int, int]) -> dict:
    """Per-layer metrics of the spans from index first on, per round.

    setup is the (start, end) span index range of set-up; only
    instances.generate_s is taken from it, and it is not divided by
    the number of rounds.
    """
    own = self_times(spans)
    totals: dict[str, float] = dict.fromkeys(
        [f"{layer}.self_s" for layer in LAYERS] + list(_SUMMED), 0.0
    )
    names: dict[str, float] = {}
    counts: dict[str, int] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for index in range(first, len(spans)):
        span = spans[index]
        name, value = span[NAME], span[ATTRIBUTE]
        add(f"{name.partition('.')[0]}.self_s", own[index])
        names[name] = names.get(name, 0.0) + own[index]
        counts[name] = counts.get(name, 0) + 1
        if name == "solver.lp_feasible":
            add("solver.simplex_feasible_s" if value else "solver.simplex_infeasible_s", own[index])
        elif name == "solver.feasibility_lp_from_expansion":
            add("solver.lp_rows", value[0])
            add("solver.lp_cols", value[1])
            add("solver.lp_nonzeros", value[2])
        elif name == "solver.probe_horizon":
            if span[CALLER] == "solver":
                add("solver.probes", 1)
                add("solver.probes_infeasible", 0 if value else 1)
            else:
                add("solver.witness_probe_s", span[END] - span[START])
        elif name == "expansion.build_time_expanded":
            add("expansion.movement_copies", value)
        elif name == "checker.check_flow":
            add("checker.pieces", value[0])
            add("checker.violations", value[1])

    def by_name(*functions: str) -> float:
        return sum(names.get(function, 0.0) for function in functions)

    totals.update(
        {
            "solver.lp_build_s": by_name("solver.feasibility_lp_from_expansion"),
            "solver.search_self_s": by_name("solver.min_feasible_horizon"),
            "expansion.build_s": by_name("expansion.build_time_expanded"),
            "expansion.build_calls": counts.get("expansion.build_time_expanded", 0),
            "expansion.extract_s": by_name("expansion.extract_flow_over_time"),
            "core.parse_s": by_name("core.parse_instance", "core.parse_flow"),
            "core.validate_s": by_name("core.validate_instance"),
            "core.serialize_s": by_name("core.serialize_instance", "core.serialize_flow"),
            "checker.capacity_s": by_name("checker.check_capacity"),
            "checker.conservation_s": by_name("checker.check_conservation"),
            "checker.demands_s": by_name("checker.check_demands"),
        }
    )
    metrics = {key: value / rounds for key, value in totals.items()}
    metrics["instances.generate_s"] = sum(
        own[index] for index in range(*setup) if spans[index][NAME].startswith("instances.")
    )
    return metrics
