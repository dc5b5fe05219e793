"""Tests of the benchmark's grid checker.

Run from the root of the repository:

    python3 -m pytest perfbench/test_gridcheck.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qmcflow import cycle_instance, serialize_flow, serialize_instance  # noqa: E402
from qmcflow import wait_schedule_with_storage, wave_schedule_no_storage  # noqa: E402

import gridcheck  # noqa: E402

KS = (3, 4, 7)


def docs(k: int, schedule) -> tuple[dict, dict]:
    return json.loads(serialize_instance(cycle_instance(k))), json.loads(serialize_flow(schedule(k)))


@pytest.mark.parametrize("k", KS)
def test_accepts_wait_schedule_with_storage(k):
    instance, flow = docs(k, wait_schedule_with_storage)
    assert gridcheck.check(instance, flow, storage=True) == []


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("storage", (True, False))
def test_accepts_wave_schedule_in_both_modes(k, storage):
    instance, flow = docs(k, wave_schedule_no_storage)
    assert gridcheck.check(instance, flow, storage=storage) == []


@pytest.mark.parametrize("k", KS)
def test_rejects_wait_schedule_without_storage(k):
    instance, flow = docs(k, wait_schedule_with_storage)
    violations = gridcheck.check(instance, flow, storage=False)
    assert {kind for kind, _, _, _ in violations} == {gridcheck.STRICT_CONSERVATION}
    assert {(node, commodity) for _, node, commodity, _ in violations} == {
        ("v0", commodity) for commodity in range(2, k)
    }


@pytest.mark.parametrize("k", KS)
def test_rejects_a_schedule_missing_one_unit(k):
    instance, flow = docs(k, wave_schedule_no_storage)
    # Commodity 0's second wave enters a0 during [k-1, k); drop that unit
    # and everything it would have carried on.
    for entry in flow["rates"]:
        if entry["commodity"] == 0:
            entry["pieces"] = [piece for piece in entry["pieces"] if int(piece["from"]) < k - 1]
    violations = gridcheck.check(instance, flow, storage=False)
    assert (gridcheck.DEMAND, f"v{k - 1}", 0, 2 * k - 1) in violations
    assert (gridcheck.DEMAND, "v0", 0, 2 * k - 1) in violations


def test_rejects_leaving_before_arriving():
    instance, flow = docs(3, wave_schedule_no_storage)
    # Commodity 1 reaches v2 over a1 by time 2; send it on over a2 one
    # unit early.
    (entry,) = [e for e in flow["rates"] if (e["arc"], e["commodity"]) == ("a2", 1)]
    entry["pieces"] = [{"from": "0", "to": "1", "rate": "1"}]
    violations = gridcheck.check(instance, flow, storage=True)
    assert (gridcheck.CONSERVATION, "v2", 1, 1) in violations


def test_rejects_a_capacity_excess():
    instance, flow = docs(3, wave_schedule_no_storage)
    flow["rates"][0]["pieces"][0]["rate"] = "2"
    violations = gridcheck.check(instance, flow, storage=True)
    assert (gridcheck.CAPACITY, flow["rates"][0]["arc"], None, 0) in violations


def test_rejects_flow_off_the_unit_grid():
    instance, flow = docs(3, wave_schedule_no_storage)
    flow["rates"][0]["pieces"][0]["to"] = "1/2"
    with pytest.raises(ValueError):
        gridcheck.check(instance, flow, storage=True)
