"""Generators: the cycle family, its witness schedules, random instances."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmcflow.checker import DEMAND, check_flow
from qmcflow.core import StorageMode, validate_instance
from qmcflow.instances import (
    CycleParams,
    cycle_instance,
    random_instance,
    wait_schedule_with_storage,
    wave_schedule_no_storage,
)

from helpers import transit_distances, truncate_flow

ONE = Fraction(1)


class TestCycleInstance:
    def test_k4_shape(self):
        instance = cycle_instance(4)
        network = instance.network
        assert network.nodes == ("v0", "v1", "v2", "v3")
        assert len(network.arcs) == 4
        for j, arc in enumerate(network.arcs):
            assert arc.id == f"a{j}"
            assert arc.tail == f"v{j}"
            assert arc.head == f"v{(j + 1) % 4}"
            assert arc.capacity == ONE
            assert arc.transit == 1
        assert [c.demand for c in instance.commodities] == [Fraction(2), ONE, ONE, ONE]
        assert instance.commodities[2].source == "v2"
        assert instance.commodities[2].sink == "v1"

    def test_d0_one_total_demand(self):
        instance = cycle_instance(CycleParams(3, Fraction(1)))
        assert sum(c.demand for c in instance.commodities) == 3

    def test_fractional_d0(self):
        instance = cycle_instance(CycleParams(5, Fraction(3, 2)))
        assert instance.commodities[0].demand == Fraction(3, 2)

    def test_nonpositive_d0_rejected(self):
        with pytest.raises(ValueError):
            CycleParams(4, Fraction(0))

    @given(st.integers(min_value=3, max_value=12))
    def test_total_demand_is_k_plus_one(self, k: int):
        instance = cycle_instance(k)
        assert sum(c.demand for c in instance.commodities) == k + 1

    @given(st.integers(min_value=3, max_value=12))
    def test_every_commodity_transit_is_k_minus_one(self, k: int):
        instance = cycle_instance(k)
        for commodity in instance.commodities:
            distances = transit_distances(instance.network, commodity.source)
            assert distances.get(commodity.sink) == k - 1

    @given(st.integers(min_value=3, max_value=12))
    def test_instances_validate(self, k: int):
        assert validate_instance(cycle_instance(k)).ok


class TestWaitSchedule:
    def test_horizon(self):
        assert wait_schedule_with_storage(4).horizon == 5

    def test_commodity0_rides_a2_for_two_units(self):
        flow = wait_schedule_with_storage(4)
        step = flow.rates[("a2", 0)]
        assert [(p.start, p.end, p.rate) for p in step.pieces] == [(2, 4, 1)]

    def test_commodity3_reenters_after_waiting(self):
        # Commodity 3 reaches v0 during [1, 2) and departs one unit later.
        flow = wait_schedule_with_storage(4)
        step = flow.rates[("a0", 3)]
        assert [(p.start, p.end, p.rate) for p in step.pieces] == [(2, 3, 1)]

    @given(st.integers(min_value=3, max_value=8))
    def test_passes_with_storage(self, k: int):
        report = check_flow(wait_schedule_with_storage(k), cycle_instance(k), StorageMode.WITH_STORAGE)
        assert report.ok


class TestWaveSchedule:
    def test_horizon(self):
        assert wave_schedule_no_storage(4).horizon == 7

    @given(st.integers(min_value=3, max_value=8))
    def test_passes_without_storage(self, k: int):
        report = check_flow(
            wave_schedule_no_storage(k), cycle_instance(k), StorageMode.NO_INTERMEDIATE_STORAGE
        )
        assert report.ok

    def test_delivers_every_demand(self):
        report = check_flow(
            wave_schedule_no_storage(4), cycle_instance(4), StorageMode.NO_INTERMEDIATE_STORAGE
        )
        assert not report.of_kind(DEMAND)

    def test_truncation_breaks_demands(self):
        flow = truncate_flow(wave_schedule_no_storage(4), 6)
        report = check_flow(flow, cycle_instance(4), StorageMode.NO_INTERMEDIATE_STORAGE)
        assert not report.ok
        assert report.of_kind(DEMAND)


@pytest.mark.parametrize("k", [2, 3.0, True, "4"])
@pytest.mark.parametrize("build", [cycle_instance, wait_schedule_with_storage, wave_schedule_no_storage])
def test_cycle_family_k_must_be_an_integer_of_at_least_three(build, k):
    with pytest.raises(ValueError, match=r"^k must be an integer >= 3$"):
        build(k)


class TestRandomInstance:
    def test_deterministic(self):
        assert random_instance(1, 5, 8, 3, 3) == random_instance(1, 5, 8, 3, 3)

    def test_single_commodity_bound(self):
        instance = random_instance(9, 5, 8, 1, 3)
        assert len(instance.commodities) == 1

    @given(st.integers(min_value=0, max_value=300))
    def test_always_valid(self, seed: int):
        assert validate_instance(random_instance(seed, 5, 8, 3, 3)).ok

    @given(st.integers(min_value=0, max_value=100))
    def test_respects_bounds(self, seed: int):
        instance = random_instance(seed, 4, 6, 2, 2)
        assert len(instance.network.nodes) <= 4
        assert len(instance.network.arcs) <= 6
        assert 1 <= len(instance.commodities) <= 2
        assert all(arc.transit <= 2 for arc in instance.network.arcs)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            random_instance(0, 1, 8, 3, 3)
        with pytest.raises(ValueError):
            random_instance(0, 5, 0, 3, 3)
        with pytest.raises(ValueError):
            random_instance(0, 5, 8, 0, 3)
        with pytest.raises(ValueError):
            random_instance(0, 5, 8, 3, -1)
