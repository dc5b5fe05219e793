"""The benchmark's workloads: their inputs, operations and output checks.

Each workload function generates and writes its inputs under a work
directory and returns the operations of one round plus an untimed
warm-up operation. An operation is the argument list of one
`qmcflow` command, run in-process, and a check of its exit code and
standard output that returns a problem or None. Checks test properties
of the outputs (closed forms, bounds, acceptance by gridcheck), not
stored outputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from qmcflow import core, instances

import gridcheck

WITH, WITHOUT = "with-storage", "no-storage"

# cycle-family: the paper's cycle family, one `gap` per k. k=8 is the
# largest k whose sweep still fits a run; it takes most of the round.
CYCLE_KS = range(3, 9)

# random-solve: instances above the acceptance suite's random bounds
# (5 nodes, 8 arcs, 3 commodities, transit <= 3). Larger bounds have a
# heavy tail of single instances that cost seconds and decide a seed's
# total on their own, so the figures would depend on the seed more than
# on the program.
RANDOM_BOUNDS = {"node_max": 6, "arc_max": 10, "commodity_max": 3, "tau_max": 3}
RANDOM_COUNT = 450
RANDOM_MAX_T = 40

# checker-large: the hand-built schedules of large cycle instances.
# Three sizes times four operations each puts the median inside the
# middle size.
CHECK_KS = (20, 50, 80)


@dataclass
class Operation:
    argv: list[str]
    check: Callable[[int, str], str | None]


def _format(value: Fraction) -> str:
    # Not qmcflow's format_rational: a check should not use the code it checks.
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def cycle_family(workdir: Path, seed: int) -> tuple[list[Operation], Operation]:
    """`gap` for one k at a time; the inputs are the fixed family and the
    seed only orders the round."""

    def operation(k: int) -> Operation:
        with_storage, without_storage = k + 1, 2 * k - 1
        row = f"{k},{with_storage},{without_storage},{_format(Fraction(without_storage, with_storage))}"
        expected = f"k,minT_with,minT_without,ratio\n{row}\n"

        def check(code: int, out: str) -> str | None:
            if code != 0:
                return f"gap k={k}: exit {code}"
            if out != expected:
                return f"gap k={k}: expected {expected!r}, got {out!r}"
            return None

        return Operation(["gap", "--k-min", str(k), "--k-max", str(k)], check)

    operations = [operation(k) for k in CYCLE_KS]
    warmup = operations[0]
    random.Random(seed).shuffle(operations)
    return operations, warmup


class _RandomInstance:
    """One random instance: its two `solve` operations share the
    with-storage minimum, against which the no-storage one is checked."""

    def __init__(self, workdir: Path, index: int, instance) -> None:
        self.path = workdir / f"random-{index}.json"
        self.path.write_text(core.serialize_instance(instance), encoding="utf-8")
        self.single = len(instance.commodities) == 1
        self.index = index
        self.doc = None
        self.minimum: int | None = None
        self.accepted: dict[str, str] = {}

    def operation(self, mode: str) -> Operation:
        witness = self.path.with_name(f"witness-{self.index}-{mode}.json")
        argv = ["solve", "--mode", mode, "--max-T", str(RANDOM_MAX_T), "--emit-flow", str(witness), str(self.path)]

        def check(code: int, out: str) -> str | None:
            name = f"solve {mode} {self.path.name}"
            if mode == WITH:
                self.minimum = None
            if code != 0:
                return f"{name}: exit {code}"
            try:
                horizon = int(out)
            except ValueError:
                return f"{name}: not a horizon: {out!r}"
            # Removed once read, so that a stale witness can never pass.
            try:
                text = witness.read_text(encoding="utf-8")
                witness.unlink()
            except FileNotFoundError:
                return f"{name}: no witness written"
            if self.accepted.get(mode) != text:
                if self.doc is None:
                    self.doc = _read_json(self.path)
                flow = json.loads(text)
                if Fraction(flow["horizon"]) != horizon:
                    return f"{name}: witness horizon {flow['horizon']} != minimum {horizon}"
                violations = gridcheck.check(self.doc, flow, storage=mode == WITH)
                if violations:
                    return f"{name}: witness rejected: {violations[:3]}"
                self.accepted[mode] = text
            if mode == WITH:
                self.minimum = horizon
                return None
            if self.minimum is None:
                return f"{name}: no with-storage minimum to compare with"
            if not self.minimum <= horizon <= 2 * self.minimum:
                return f"{name}: {horizon} outside [{self.minimum}, {2 * self.minimum}]"
            if self.single and horizon != self.minimum:
                return f"{name}: single commodity, yet {horizon} != {self.minimum}"
            return None

        return Operation(argv, check)


def random_solve(workdir: Path, seed: int) -> tuple[list[Operation], Operation]:
    """`solve --emit-flow` in both modes on seeded random instances."""
    operations = []
    for index in range(RANDOM_COUNT):
        instance = instances.random_instance(seed * 1_000_000 + index, **RANDOM_BOUNDS)
        entry = _RandomInstance(workdir, index, instance)
        operations += [entry.operation(WITH), entry.operation(WITHOUT)]
    return operations, operations[0]


def checker_large(workdir: Path, seed: int) -> tuple[list[Operation], Operation]:
    """`check` of the wait and wave schedules of large cycle instances in
    both modes; the inputs are fixed and the seed only orders the round."""
    operations: list[Operation] = []
    verdicts: dict[tuple[int, str, str], list] = {}
    for k in CHECK_KS:
        instance_path = workdir / f"cycle-{k}.json"
        instance_path.write_text(core.serialize_instance(instances.cycle_instance(k)), encoding="utf-8")
        schedules = {
            "wait": instances.wait_schedule_with_storage(k),
            "wave": instances.wave_schedule_no_storage(k),
        }
        for schedule, flow in schedules.items():
            flow_path = workdir / f"{schedule}-{k}.json"
            flow_path.write_text(core.serialize_flow(flow), encoding="utf-8")
            for mode in (WITH, WITHOUT):
                operations.append(_check_operation(k, schedule, mode, instance_path, flow_path, verdicts))
    warmup = operations[0]
    random.Random(seed).shuffle(operations)
    return operations, warmup


def _check_operation(k, schedule, mode, instance_path, flow_path, verdicts) -> Operation:
    # The wait schedule holds commodities 2..k-1 at v0 for one time unit,
    # which only storage allows; everything else is feasible.
    rejected = schedule == "wait" and mode == WITHOUT
    expected = {("v0", commodity) for commodity in range(2, k)} if rejected else set()
    name = f"check {mode} {flow_path.name}"

    def check(code: int, out: str) -> str | None:
        if code != (1 if rejected else 0):
            return f"{name}: exit {code}"
        found = [json.loads(line) for line in out.splitlines()]
        if any(v["kind"] != gridcheck.STRICT_CONSERVATION for v in found):
            return f"{name}: unexpected violation kinds in {out[:200]!r}"
        places = [(v["location"], v["commodity"]) for v in found]
        if len(places) != len(expected) or set(places) != expected:
            return f"{name}: violations at {sorted(places)[:5]}..., expected v0 x 2..{k - 1}"
        key = (k, schedule, mode)
        if key not in verdicts:
            verdicts[key] = gridcheck.check(_read_json(instance_path), _read_json(flow_path), storage=mode == WITH)
        grid = verdicts[key]
        if {(kind, node) for kind, node, _, _ in grid} - {(gridcheck.STRICT_CONSERVATION, "v0")}:
            return f"{name}: gridcheck found other violations: {grid[:3]}"
        if {(node, commodity) for _, node, commodity, _ in grid} != expected:
            return f"{name}: gridcheck disagrees: {grid[:3]}"
        return None

    return Operation(["check", "--mode", mode, str(instance_path), str(flow_path)], check)


WORKLOADS = {
    "cycle-family": cycle_family,
    "random-solve": random_solve,
    "checker-large": checker_large,
}
