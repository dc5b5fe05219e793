"""Acceptance sweep: one test per numbered criterion, exact arithmetic.

Every LP probe executed here lands in a shared log; the final criterion
pushes the witness flow of each feasible probe back through the checker
and onto the unreduced node-arc LP. Timing lines are printed per
criterion (visible with -s or on failure); the verdicts themselves never
depend on time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

from qmcflow import (
    CycleParams,
    SpeedupReport,
    StorageMode,
    check_flow,
    cycle_instance,
    gap_csv,
    gap_sweep,
    min_feasible_horizon,
    probe_horizon,
    random_instance,
    speedup_ratio,
    wait_schedule_with_storage,
    wave_schedule_no_storage,
)

from helpers import SEPARATING_CYCLES, flow_satisfies_unreduced_lp

WITH = StorageMode.WITH_STORAGE
WITHOUT = StorageMode.NO_INTERMEDIATE_STORAGE
KS = range(3, 9)

_PROBE_LOG = []


def _log(expansion, result):
    _PROBE_LOG.append((expansion, result))


_SWEEP: dict[int, SpeedupReport] = {}


def sweep() -> dict[int, SpeedupReport]:
    if not _SWEEP:
        _SWEEP.update(gap_sweep(3, 8, observer=_log))
    return _SWEEP


@contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    yield
    print(f"criterion {number} PASS ({time.perf_counter() - start:.1f}s): {title}")


def test_criterion_01_wait_schedule_and_feasibility_at_k_plus_one():
    with criterion(1, "wait schedule certified, horizon k+1 feasible with storage"):
        for k in KS:
            flow = wait_schedule_with_storage(k)
            assert flow.horizon == k + 1
            assert check_flow(flow, cycle_instance(k), WITH).ok
            probe = probe_horizon(cycle_instance(k), k + 1, WITH)
            _PROBE_LOG.append(probe)
            assert probe[1].feasible


def test_criterion_02_with_storage_minimum_is_exactly_k_plus_one():
    with criterion(2, "horizon k infeasible with storage; search returns k+1"):
        for k in KS:
            probe = probe_horizon(cycle_instance(k), k, WITH)
            _PROBE_LOG.append(probe)
            assert not probe[1].feasible
            assert sweep()[k].with_storage == k + 1


def test_criterion_03_no_storage_infeasible_at_2k_minus_2():
    with criterion(3, "horizon 2k-2 infeasible without storage"):
        for k in KS:
            probe = probe_horizon(cycle_instance(k), 2 * k - 2, WITHOUT)
            _PROBE_LOG.append(probe)
            assert not probe[1].feasible


def test_criterion_04_no_storage_minimum_is_exactly_2k_minus_1():
    with criterion(4, "wave schedule certified at 2k-1; search returns 2k-1"):
        for k in KS:
            flow = wave_schedule_no_storage(k)
            assert flow.horizon == 2 * k - 1
            assert check_flow(flow, cycle_instance(k), WITHOUT).ok
            assert sweep()[k].without_storage == 2 * k - 1


def test_criterion_05_ratios_climb_toward_two():
    with criterion(5, "sweep ratios strictly increase, ending at 5/3"):
        ratios = [sweep()[k].ratio for k in KS]
        assert ratios == [
            Fraction(5, 4),
            Fraction(7, 5),
            Fraction(9, 6),
            Fraction(11, 7),
            Fraction(13, 8),
            Fraction(15, 9),
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] >= Fraction(5, 3)


def test_criterion_06_factor_two_on_random_instances():
    # speedup_ratio searches without storage only inside [W, 2W], so its
    # own report satisfies the bound by construction. The no-storage
    # minimum is searched again on its own, galloping up from the
    # open-arc bound, and the bound is asserted on that. None of the 50
    # seeds separates the modes; the cycles do.
    with criterion(6, "minT_with <= minT_without <= 2 minT_with on 50 seeds and 3 separating cycles"):
        cases = [(random_instance(seed, 5, 8, 3, 3), None) for seed in range(1, 51)]
        cases += [(cycle_instance(params), minima) for params, minima in SEPARATING_CYCLES.items()]
        for instance, minima in cases:
            without_storage, _ = min_feasible_horizon(instance, WITHOUT, 40, observer=_log)
            report = speedup_ratio(instance, 40, observer=_log)
            assert report.with_storage <= without_storage <= 2 * report.with_storage
            assert report.without_storage == without_storage
            if minima is not None:
                assert (report.with_storage, without_storage) == minima


def test_criterion_07_single_commodity_never_gains_from_storage():
    with criterion(7, "minT_with == minT_without on 20 single-commodity seeds"):
        for seed in range(1, 21):
            instance = random_instance(seed, 5, 8, 1, 3)
            assert len(instance.commodities) == 1
            report = speedup_ratio(instance, 40, observer=_log)
            assert report.with_storage == report.without_storage


def test_criterion_08_demand_steps_move_the_no_storage_minimum():
    with criterion(8, "cycle k=5: d0=1 solves at 5, d0=3/2 jumps to 9"):
        light = cycle_instance(CycleParams(5, Fraction(1)))
        assert min_feasible_horizon(light, WITHOUT, 40, observer=_log)[0] == 5
        heavy = cycle_instance(CycleParams(5, Fraction(3, 2)))
        assert min_feasible_horizon(heavy, WITHOUT, 40, observer=_log)[0] == 9


def test_criterion_09_every_feasible_probe_survives_the_checker():
    with criterion(9, "all feasible LP results re-check as flows, exactly"):
        feasible = [(e, r) for e, r in _PROBE_LOG if r.feasible]
        assert feasible, "earlier criteria must have logged probes"
        for expansion, result in feasible:
            # A witness ends at its last arrival, and is checked there.
            flow = result.flow
            assert flow.horizon <= expansion.horizon
            report = check_flow(flow, expansion.instance, expansion.mode)
            assert report.ok, (
                f"witness flow fails at T={flow.horizon} probed at T={expansion.horizon}"
                f" in mode {expansion.mode.value}: {report.violations[:3]}"
            )
            assert flow_satisfies_unreduced_lp(expansion, flow), (
                f"witness flow breaks the node-arc LP at T={expansion.horizon}"
                f" in mode {expansion.mode.value}"
            )


def test_criterion_10_sweep_csv_is_byte_stable():
    with criterion(10, "two sweeps of k=3..6 print identical CSV"):
        first = gap_csv(gap_sweep(3, 6))
        second = gap_csv(gap_sweep(3, 6))
        assert first == second
        assert first.splitlines()[0] == "k,minT_with,minT_without,ratio"
