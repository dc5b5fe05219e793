"""The checker: capacity, conservation and demand violations of flows,
and the inequality of cuts."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qmcflow.checker import (
    CAPACITY,
    CONSERVATION,
    CUT,
    DEMAND,
    STRICT_CONSERVATION,
    Violation,
    check_cut,
    check_flow,
)
from qmcflow.core import (
    Arc,
    Commodity,
    FlowOverTime,
    Instance,
    Network,
    Piece,
    StepFunction,
    StorageMode,
    parse_flow,
    serialize_flow,
    step_function,
)
from qmcflow.instances import (
    CycleParams,
    cycle_instance,
    random_instance,
    wait_schedule_with_storage,
    wave_schedule_no_storage,
)

from helpers import cumulative, reference_check_flow, truncate_flow

WITH = StorageMode.WITH_STORAGE
WITHOUT = StorageMode.NO_INTERMEDIATE_STORAGE
BALANCE = (CONSERVATION, STRICT_CONSERVATION)


def path_instance() -> Instance:
    """v0 -> v1 -> v2, unit capacities and transits, one commodity."""
    network = Network(
        ("v0", "v1", "v2"),
        (
            Arc("a0", "v0", "v1", Fraction(1), 1),
            Arc("a1", "v1", "v2", Fraction(1), 1),
        ),
    )
    return Instance(network, (Commodity("v0", "v2", Fraction(1)),))


def violations_of(
    flow: FlowOverTime, instance: Instance, mode: StorageMode, *kinds: str
) -> tuple[Violation, ...]:
    """check_flow's violations of the given kinds, in report order."""
    return tuple([v for v in check_flow(flow, instance, mode).violations if v.kind in kinds])


class TestCumulative:
    def test_rectangle(self):
        step = step_function(2, [(0, 2, 1)])
        assert cumulative(step, Fraction(3, 2)) == Fraction(3, 2)

    def test_zero_function(self):
        step = step_function(5)
        assert cumulative(step, 3) == 0
        assert cumulative(step, Fraction(9, 2)) == 0

    def test_sum_of_pieces(self):
        step = step_function(10, [(0, 1, 1), (3, 4, 1)])
        assert cumulative(step, 10) == 2

    def test_beyond_domain_returns_full_integral(self):
        step = step_function(2, [(0, 2, 2)])
        assert cumulative(step, 100) == 4

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            cumulative(step_function(2, [(0, 1, 1)]), -1)

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
    def test_monotone_in_theta(self, a: int, b: int):
        step = step_function(8, [(0, 2, 2), (3, 5, 1)])
        lo, hi = sorted((a, b))
        assert cumulative(step, lo) <= cumulative(step, hi)


class TestCapacity:
    def test_wait_schedule_fits(self):
        assert not violations_of(wait_schedule_with_storage(4), cycle_instance(4), WITH, CAPACITY)

    def test_wave_schedule_fits(self):
        assert not violations_of(wave_schedule_no_storage(5), cycle_instance(5), WITH, CAPACITY)

    def test_two_commodities_overload_one_arc(self):
        instance = cycle_instance(3)
        horizon = Fraction(4)
        flow = FlowOverTime(
            horizon,
            {
                ("a0", 0): step_function(horizon, [(0, 1, 1)]),
                ("a0", 1): step_function(horizon, [(0, 1, 1)]),
            },
        )
        violations = violations_of(flow, instance, WITH, CAPACITY)
        assert [
            (v.kind, v.location, v.commodity, v.start, v.end, v.magnitude) for v in violations
        ] == [(CAPACITY, "a0", None, 0, 1, 1)]

    def test_violation_intervals_are_maximal(self):
        instance = cycle_instance(3)
        horizon = Fraction(4)
        # Two overlapping pulses produce one constant stretch of excess.
        flow = FlowOverTime(
            horizon,
            {
                ("a0", 0): step_function(horizon, [(0, 2, 1)]),
                ("a0", 1): step_function(horizon, [(1, 3, 1)]),
            },
        )
        violations = violations_of(flow, instance, WITH, CAPACITY)
        assert [(v.start, v.end, v.magnitude) for v in violations] == [(1, 2, 1)]

    @given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(3, 2)))
    def test_saturated_arc_perturbation(self, epsilon: Fraction):
        # The wave schedule saturates a0 on [0, 1); any upward bump on a
        # saturated stretch must surface as exactly one violation of the
        # same magnitude.
        instance = cycle_instance(4)
        flow = wave_schedule_no_storage(4)
        rates = dict(flow.rates)
        step = rates[("a0", 0)]
        first = step.pieces[0]
        bumped = (Piece(first.start, first.end, first.rate + epsilon),) + step.pieces[1:]
        rates[("a0", 0)] = StepFunction(step.domain_end, bumped)
        violations = violations_of(FlowOverTime(flow.horizon, rates), instance, WITH, CAPACITY)
        assert [(v.location, v.start, v.end, v.magnitude) for v in violations] == [
            ("a0", first.start, first.end, epsilon)
        ]


class TestConservation:
    def test_wait_schedule_with_storage(self):
        assert not violations_of(wait_schedule_with_storage(4), cycle_instance(4), WITH, *BALANCE)

    def test_wait_schedule_strict_mode_flags_v0(self):
        violations = violations_of(
            wait_schedule_with_storage(4), cycle_instance(4), WITHOUT, *BALANCE
        )
        flagged = {(v.kind, v.location, v.commodity) for v in violations}
        assert flagged == {
            (STRICT_CONSERVATION, "v0", 2),
            (STRICT_CONSERVATION, "v0", 3),
        }

    @given(st.integers(min_value=3, max_value=8))
    def test_strict_violations_always_at_v0(self, k: int):
        violations = violations_of(
            wait_schedule_with_storage(k), cycle_instance(k), WITHOUT, *BALANCE
        )
        assert {v.location for v in violations} == {"v0"}
        assert {v.commodity for v in violations} == set(range(2, k))
        assert all(v.kind == STRICT_CONSERVATION for v in violations)

    def test_sending_without_inflow_goes_negative(self):
        instance = path_instance()
        horizon = Fraction(3)
        flow = FlowOverTime(horizon, {("a1", 0): step_function(horizon, [(0, 1, 1)])})
        violations = violations_of(flow, instance, WITH, *BALANCE)
        kinds = {(v.kind, v.location) for v in violations}
        assert (CONSERVATION, "v1") in kinds
        assert all(v.magnitude > 0 for v in violations)

    def test_wave_schedule_strict(self):
        assert not violations_of(wave_schedule_no_storage(4), cycle_instance(4), WITHOUT, *BALANCE)

    def test_sink_storage_is_allowed_in_strict_mode(self):
        # Arriving early and sitting at the sink is not intermediate storage.
        instance = path_instance()
        horizon = Fraction(5)
        flow = FlowOverTime(
            horizon,
            {
                ("a0", 0): step_function(horizon, [(0, 1, 1)]),
                ("a1", 0): step_function(horizon, [(1, 2, 1)]),
            },
        )
        assert not violations_of(flow, instance, WITHOUT, *BALANCE)


class TestDemands:
    @given(st.integers(min_value=3, max_value=8))
    def test_wait_schedule_delivers(self, k: int):
        assert not violations_of(wait_schedule_with_storage(k), cycle_instance(k), WITH, DEMAND)

    def test_truncated_schedule_misses_demands(self):
        flow = truncate_flow(wait_schedule_with_storage(4), 4)
        violations = violations_of(flow, cycle_instance(4), WITH, DEMAND)
        assert violations
        assert all(v.kind == DEMAND for v in violations)

    def test_empty_flow_misses_every_demand(self):
        instance = cycle_instance(3)
        violations = violations_of(FlowOverTime(Fraction(4), {}), instance, WITH, DEMAND)
        by_sink = {(v.location, v.commodity): v.magnitude for v in violations}
        for index, commodity in enumerate(instance.commodities):
            assert by_sink[(commodity.sink, index)] == commodity.demand

    def test_overdelivery_is_flagged(self):
        instance = path_instance()
        horizon = Fraction(4)
        flow = FlowOverTime(
            horizon,
            {
                ("a0", 0): step_function(horizon, [(0, 2, 1)]),
                ("a1", 0): step_function(horizon, [(1, 3, 1)]),
            },
        )
        violations = violations_of(flow, instance, WITH, DEMAND)
        assert any(v.location == "v2" and v.magnitude == 1 for v in violations)


class TestCheckFlow:
    def test_wait_schedule_modes(self):
        flow = wait_schedule_with_storage(5)
        instance = cycle_instance(5)
        assert check_flow(flow, instance, WITH).ok
        assert not check_flow(flow, instance, WITHOUT).ok

    def test_wave_schedule_strict(self):
        assert check_flow(wave_schedule_no_storage(5), cycle_instance(5), WITHOUT).ok

    @given(st.integers(min_value=3, max_value=7))
    def test_strict_mode_only_adds_violations(self, k: int):
        instance = cycle_instance(k)
        for flow in (wait_schedule_with_storage(k), wave_schedule_no_storage(k)):
            relaxed = check_flow(flow, instance, WITH).violations
            strict = check_flow(flow, instance, WITHOUT).violations
            assert set(relaxed) <= set(strict)

    def test_unknown_arc_is_structural(self):
        instance = cycle_instance(3)
        flow = FlowOverTime(Fraction(4), {("zz", 0): step_function(4, [(0, 1, 1)])})
        with pytest.raises(ValueError, match="unknown arc"):
            check_flow(flow, instance, WITH)

    def test_unknown_commodity_is_structural(self):
        instance = cycle_instance(3)
        flow = FlowOverTime(Fraction(4), {("a0", 7): step_function(4, [(0, 1, 1)])})
        with pytest.raises(ValueError, match="unknown commodity"):
            check_flow(flow, instance, WITH)

    @pytest.mark.parametrize("mode", ["no-storage", "with-storage", None])
    def test_mode_must_be_a_storage_mode(self, mode):
        # Read as with-storage, "no-storage" would pass the wait
        # schedule, which stores flow at v0.
        with pytest.raises(ValueError, match="mode must be a StorageMode"):
            check_flow(wait_schedule_with_storage(5), cycle_instance(5), mode)

    def test_json_lines_are_parseable(self):
        import json

        flow = wait_schedule_with_storage(4)
        report = check_flow(flow, cycle_instance(4), WITHOUT)
        lines = report.to_json_lines().splitlines()
        assert len(lines) == len(report.violations)
        for line in lines:
            record = json.loads(line)
            assert record["kind"] == STRICT_CONSERVATION
            assert record["location"] == "v0"


def no_storage_cycle_cut(k: int) -> dict[tuple[str, int], int]:
    """Length 1 on every arc of the k-cycle at layer k-2. Every
    no-storage path departs by k-2 at T = 2k-2 and spans k-1 consecutive
    layers, so it crosses that layer: a demand of k+1 against a budget of
    k."""
    return {(f"a{j}", k - 2): 1 for j in range(k)}


def with_storage_cycle_cut(k: int) -> dict[tuple[str, int], int]:
    """Length 1 on (a0, theta) for theta = 0..k-2, plus (a1, 0)."""
    cut = {("a0", theta): 1 for theta in range(k - 1)}
    cut["a1", 0] = 1
    return cut


class TestCheckCut:
    """check_cut: the cycle family's closed-form cuts and edge cases."""

    @pytest.mark.parametrize("k", range(3, 13))
    def test_no_storage_cycle_cut(self, k: int):
        instance, cut = cycle_instance(k), no_storage_cycle_cut(k)
        assert check_cut(2 * k - 2, cut, instance, WITHOUT).ok
        # At the minimum 2k-1 itself every commodity departs late enough
        # to avoid the layer, so nothing is proved.
        assert check_cut(2 * k - 1, cut, instance, WITHOUT).violations == (
            Violation(CUT, "", None, Fraction(0), Fraction(2 * k - 1), Fraction(k)),
        )
        for copy in cut:
            assert not check_cut(2 * k - 2, {**cut, copy: 0}, instance, WITHOUT).ok, copy

    @pytest.mark.parametrize("k", range(3, 13))
    def test_with_storage_cycle_cut(self, k: int):
        instance, cut = cycle_instance(k), with_storage_cycle_cut(k)
        assert check_cut(k, cut, instance, WITH).ok
        assert check_cut(k + 1, cut, instance, WITH).of_kind(CUT)
        # The cut is not minimal: it certifies without (a1, 0) too.
        del cut["a1", 0]
        assert check_cut(k, cut, instance, WITH).ok

    def test_negative_length_is_a_violation(self):
        report = check_cut(3, {("a0", 1): -2, ("a1", 0): 1}, path_instance(), WITH)
        assert report.violations == (
            Violation(CUT, "a0", None, Fraction(1), Fraction(2), Fraction(2)),
        )

    def test_unknown_arc_is_structural(self):
        with pytest.raises(ValueError, match="unknown arc"):
            check_cut(3, {("zz", 0): 1}, path_instance(), WITH)

    @pytest.mark.parametrize("mode", ["no-storage", "with-storage", None])
    def test_mode_must_be_a_storage_mode(self, mode):
        with pytest.raises(ValueError, match="mode must be a StorageMode"):
            check_cut(3, {}, cycle_instance(3), mode)

    @pytest.mark.parametrize("horizon", [0, -4, True, Fraction(5, 2)])
    def test_horizon_must_be_a_positive_integer(self, horizon):
        # Unchecked, the empty cut finds no walk to the sink at 0, -4
        # and True, and so accepts them.
        with pytest.raises(ValueError, match="horizon must be a positive integer"):
            check_cut(horizon, {}, cycle_instance(3), WITH)

    def test_no_walk_to_the_sink_proves_infeasibility(self):
        # The path needs T >= 3; below that even the empty cut proves it.
        for horizon in (1, 2):
            for mode in (WITH, WITHOUT):
                assert check_cut(horizon, {}, path_instance(), mode).ok

    def test_empty_cut_proves_nothing_once_the_sink_is_reachable(self):
        assert check_cut(3, {}, path_instance(), WITH).violations == (
            Violation(CUT, "", None, Fraction(0), Fraction(3), Fraction(0)),
        )


# Times of random pieces lie on a grid of twelfths; rates mix denominators.
_TWELFTHS = 12
_RATE_DENOMINATORS = (1, 2, 3, 5)


@st.composite
def random_flows(draw) -> tuple[Instance, FlowOverTime]:
    """A random instance with arbitrary (mostly infeasible) flows on it.

    The instances have zero-transit arcs; the flows have pieces with
    mixed time and rate denominators, zero-rate pieces, gaps, pieces that
    end at the horizon, empty rate functions and in-arc arrivals after
    the horizon.
    """
    instance = random_instance(draw(st.integers(min_value=1, max_value=10_000)), 5, 8, 3, 3)
    steps = draw(st.integers(min_value=1, max_value=6 * _TWELFTHS))
    horizon = Fraction(steps, _TWELFTHS)
    rates: dict[tuple[str, int], StepFunction] = {}
    for arc in instance.network.arcs:
        for commodity in range(len(instance.commodities)):
            if not draw(st.booleans()):
                continue
            cuts = draw(st.sets(st.integers(min_value=0, max_value=steps), max_size=8))
            if draw(st.booleans()):
                cuts.add(steps)
            cuts = sorted(cuts)
            pieces = []
            for lo, hi in zip(cuts, cuts[1:]):
                if draw(st.integers(min_value=0, max_value=3)) == 0:
                    continue  # a gap
                rate = Fraction(
                    draw(st.integers(min_value=0, max_value=4)),
                    draw(st.sampled_from(_RATE_DENOMINATORS)),
                )
                pieces.append(Piece(Fraction(lo, _TWELFTHS), Fraction(hi, _TWELFTHS), rate))
            rates[arc.id, commodity] = StepFunction(horizon, tuple(pieces))
    return instance, FlowOverTime(horizon, rates)


def _with_cycle_schedules(test):
    """Add the k=3..12 wait and wave schedules, as given and truncated by
    3/2 time units, as explicit examples, on the cycle with d0 = 2 and on
    the one with d0 = 3, where commodity 0 falls one unit short at its
    source and sink."""
    for k in range(3, 13):
        for schedule in (wait_schedule_with_storage, wave_schedule_no_storage):
            flow = schedule(k)
            for case in (flow, truncate_flow(flow, flow.horizon - Fraction(3, 2))):
                for d0 in (2, 3):
                    test = example((cycle_instance(CycleParams(k, Fraction(d0))), case))(test)
    return test


class TestAgainstReference:
    @_with_cycle_schedules
    @given(random_flows())
    def test_sweep_matches_the_per_breakpoint_checker(self, case):
        instance, flow = case
        for mode in (WITH, WITHOUT):
            assert check_flow(flow, instance, mode).violations == reference_check_flow(
                flow, instance, mode
            ), mode


class TestParsedFlows:
    """parse_flow shares one StepFunction among entries with equal pieces,
    and check_flow converts each distinct one once."""

    @_with_cycle_schedules
    @given(random_flows())
    def test_a_parsed_flow_checks_like_the_flow_it_was_written_from(self, case):
        instance, flow = case
        parsed = parse_flow(serialize_flow(flow))
        for mode in (WITH, WITHOUT):
            assert check_flow(parsed, instance, mode) == check_flow(flow, instance, mode), mode

    @pytest.mark.parametrize("k", [3, 20])
    def test_wait_schedule_without_storage(self, k: int):
        instance = cycle_instance(k)
        flow = wait_schedule_with_storage(k)
        parsed = parse_flow(serialize_flow(flow))
        assert len({id(step) for step in parsed.rates.values()}) < len(parsed.rates)
        report = check_flow(parsed, instance, WITHOUT)
        assert len(report.violations) == k - 2
        assert {(v.kind, v.location) for v in report.violations} == {(STRICT_CONSERVATION, "v0")}
        assert report == check_flow(flow, instance, WITHOUT)
        assert check_flow(parsed, instance, WITH).ok

    def test_one_step_function_on_several_arcs(self):
        instance = path_instance()
        step = step_function(4, [(0, 1, 1)])
        shared = FlowOverTime(Fraction(4), {("a0", 0): step, ("a1", 0): step})
        copied = FlowOverTime(Fraction(4), {("a0", 0): step, ("a1", 0): step_function(4, [(0, 1, 1)])})
        for mode in (WITH, WITHOUT):
            report = check_flow(shared, instance, mode)
            assert report == check_flow(copied, instance, mode)
            # a1 sends during [0, 1) what a0 brings to v1 only at time 1.
            assert [(v.kind, v.location, v.start) for v in report.violations] == [(CONSERVATION, "v1", 1)]
