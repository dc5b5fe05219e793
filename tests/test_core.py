"""Core domain types, validation, shortest paths and the file formats."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmcflow.core import (
    Arc,
    Commodity,
    FlowOverTime,
    Instance,
    Network,
    ParseError,
    Piece,
    StepFunction,
    parse_flow,
    parse_instance,
    format_rational,
    rational,
    reachable_nodes,
    serialize_flow,
    serialize_instance,
    step_function,
    transit_distances,
    validate_instance,
)
from qmcflow.instances import cycle_instance, random_instance, wait_schedule_with_storage


def two_node_instance() -> Instance:
    network = Network(
        ("v0", "v1"),
        (Arc("a0", "v0", "v1", Fraction(1), 1),),
    )
    return Instance(network, (Commodity("v0", "v1", Fraction(1)),))


class TestRational:
    def test_int_and_fraction_pass_through(self):
        assert rational(2) == Fraction(2)
        assert rational(Fraction(3, 7)) == Fraction(3, 7)

    def test_string_forms(self):
        assert rational("3/2") == Fraction(3, 2)
        assert rational("7") == Fraction(7)
        assert rational(" -4/6 ") == Fraction(-2, 3)

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            rational(1.5)  # type: ignore[arg-type]

    def test_bool_is_rejected(self):
        with pytest.raises(TypeError):
            rational(True)

    def test_malformed_strings(self):
        for text in ("", "one", "1/2/3", "1.5", "3 / 2"):
            with pytest.raises(ValueError):
                rational(text)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            rational("1/0")

    @given(st.fractions())
    def test_format_round_trips(self, value: Fraction):
        assert rational(format_rational(value)) == value

    def test_format_integers_without_slash(self):
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(7, 5)) == "7/5"


class TestStepFunction:
    def test_gaps_are_allowed(self):
        step = step_function(10, [(0, 1, 1), (3, 4, 1)])
        assert len(step.pieces) == 2

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlaps"):
            step_function(5, [(0, 2, 1), (1, 3, 1)])

    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError, match="overlaps or is out of order"):
            step_function(5, [(2, 3, 1), (0, 1, 1)])

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="nonnegative"):
            step_function(5, [(0, 1, -1)])

    def test_rejects_piece_beyond_domain(self):
        with pytest.raises(ValueError, match="not contained"):
            step_function(2, [(1, 3, 1)])

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="empty or reversed"):
            step_function(2, [(1, 1, 1)])

    def test_rejects_nonpositive_domain(self):
        with pytest.raises(ValueError, match="domain end"):
            step_function(0)


class TestFlowOverTime:
    def test_domain_must_match_horizon(self):
        with pytest.raises(ValueError, match="differs from horizon"):
            FlowOverTime(Fraction(5), {("a0", 0): step_function(4, [(0, 1, 1)])})

    def test_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            FlowOverTime(Fraction(0), {})


class TestValidateInstance:
    def test_cycle_is_valid(self):
        assert validate_instance(cycle_instance(4)).ok

    @given(st.integers(min_value=3, max_value=12))
    def test_every_cycle_is_valid(self, k: int):
        assert validate_instance(cycle_instance(k)).ok

    def test_source_equals_sink(self):
        base = two_node_instance()
        bad = Instance(base.network, (Commodity("v0", "v0", Fraction(1)),))
        report = validate_instance(bad)
        assert not report.ok
        assert any(d.invariant == "source equals sink" for d in report.defects)

    def test_sink_unreachable(self):
        base = two_node_instance()
        bad = Instance(base.network, (Commodity("v1", "v0", Fraction(1)),))
        report = validate_instance(bad)
        assert any(d.invariant == "sink unreachable" for d in report.defects)

    def test_duplicate_arc_id(self):
        network = Network(
            ("v0", "v1"),
            (
                Arc("a0", "v0", "v1", Fraction(1), 1),
                Arc("a0", "v1", "v0", Fraction(1), 1),
            ),
        )
        report = validate_instance(Instance(network, (Commodity("v0", "v1", Fraction(1)),)))
        assert not report.ok

    def test_negative_capacity(self):
        network = Network(("v0", "v1"), (Arc("a0", "v0", "v1", Fraction(-1), 1),))
        report = validate_instance(Instance(network, (Commodity("v0", "v1", Fraction(1)),)))
        assert not report.ok

    def test_report_str_mentions_defect(self):
        base = two_node_instance()
        bad = Instance(base.network, (Commodity("v0", "v0", Fraction(1)),))
        assert "source equals sink" in str(validate_instance(bad))


class TestPaths:
    def test_reachable_from_cycle_node(self):
        network = cycle_instance(4).network
        assert reachable_nodes(network, "v1") == frozenset({"v0", "v1", "v2", "v3"})

    def test_reachable_stops_at_dead_end(self):
        network = two_node_instance().network
        assert reachable_nodes(network, "v1") == frozenset({"v1"})

    def test_reachable_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node"):
            reachable_nodes(two_node_instance().network, "nope")

    def test_cycle_transit(self):
        network = cycle_instance(4).network
        assert transit_distances(network, "v0").get("v3") == 3

    def test_transit_to_self_is_zero(self):
        network = cycle_instance(4).network
        assert transit_distances(network, "v2").get("v2") == 0

    def test_wraparound_transit(self):
        network = cycle_instance(5).network
        assert transit_distances(network, "v2").get("v1") == 4

    def test_unreachable_is_none(self):
        network = two_node_instance().network
        assert transit_distances(network, "v1").get("v0") is None

    def test_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown node"):
            transit_distances(two_node_instance().network, "vX")

    def test_distances_cover_every_reachable_node(self):
        network = cycle_instance(4).network
        assert transit_distances(network, "v1") == {"v1": 0, "v2": 1, "v3": 2, "v0": 3}

    def test_reverse_distances_lead_to_the_origin(self):
        network = cycle_instance(4).network
        assert transit_distances(network, "v1", reverse=True) == {
            "v1": 0,
            "v0": 1,
            "v3": 2,
            "v2": 3,
        }

    def test_unreachable_nodes_are_absent(self):
        network = Network(
            ("s", "m", "t", "x"),
            (
                Arc("a0", "s", "m", Fraction(1), 2),
                Arc("a1", "m", "t", Fraction(1), 0),
                Arc("a2", "x", "m", Fraction(1), 1),
            ),
        )
        assert transit_distances(network, "s") == {"s": 0, "m": 2, "t": 2}
        assert transit_distances(network, "t", reverse=True) == {"t": 0, "m": 0, "s": 2, "x": 1}
        assert transit_distances(network, "x", reverse=True) == {"x": 0}
        assert transit_distances(network, "s", reverse=True) == {"s": 0}

    def test_reverse_takes_the_cheaper_parallel_arc(self):
        network = Network(
            ("u", "v"),
            (Arc("slow", "u", "v", Fraction(1), 5), Arc("fast", "u", "v", Fraction(1), 2)),
        )
        assert transit_distances(network, "v", reverse=True) == {"v": 0, "u": 2}

    def test_distances_unknown_origin(self):
        with pytest.raises(ValueError, match="unknown node"):
            transit_distances(two_node_instance().network, "nope", reverse=True)

    @given(st.integers(min_value=3, max_value=10), st.data())
    def test_reverse_distances_match_shortest_transit(self, k: int, data):
        network = random_instance(data.draw(st.integers(0, 10**6)), k, 2 * k, 1, 3).network
        origin = data.draw(st.sampled_from(network.nodes))
        expected = {
            node: transit_distances(network, node)[origin]
            for node in network.nodes
            if origin in transit_distances(network, node)
        }
        assert transit_distances(network, origin, reverse=True) == expected

    @given(st.integers(min_value=3, max_value=10), st.data())
    def test_triangle_inequality_on_cycles(self, k: int, data):
        network = cycle_instance(k).network
        a = data.draw(st.integers(min_value=0, max_value=k - 1))
        b = data.draw(st.integers(min_value=0, max_value=k - 1))
        c = data.draw(st.integers(min_value=0, max_value=k - 1))
        ab = transit_distances(network, f"v{a}")[f"v{b}"]
        bc = transit_distances(network, f"v{b}")[f"v{c}"]
        ac = transit_distances(network, f"v{a}")[f"v{c}"]
        assert ac <= ab + bc


class TestInstanceFormat:
    def test_round_trip_cycle(self):
        instance = cycle_instance(3)
        assert parse_instance(serialize_instance(instance)) == instance

    @given(st.integers(min_value=0, max_value=500))
    def test_round_trip_random_instances(self, seed: int):
        instance = random_instance(seed, 5, 8, 3, 3)
        assert parse_instance(serialize_instance(instance)) == instance

    def test_rational_demand_literal(self):
        text = serialize_instance(cycle_instance(3))
        doc = json.loads(text)
        doc["commodities"][0]["demand"] = "3/2"
        parsed = parse_instance(json.dumps(doc))
        assert parsed.commodities[0].demand == Fraction(3, 2)

    def test_negative_capacity_is_a_parse_error(self):
        doc = json.loads(serialize_instance(cycle_instance(3)))
        doc["arcs"][0]["capacity"] = "-1"
        with pytest.raises(ParseError, match="capacity must be nonnegative"):
            parse_instance(json.dumps(doc))

    def test_float_field_is_rejected(self):
        doc = json.loads(serialize_instance(cycle_instance(3)))
        doc["commodities"][0]["demand"] = 1.5
        with pytest.raises(ParseError):
            parse_instance(json.dumps(doc))

    def test_fractional_transit_is_rejected(self):
        doc = json.loads(serialize_instance(cycle_instance(3)))
        doc["arcs"][0]["transit"] = "1/2"
        with pytest.raises(ParseError, match="integer"):
            parse_instance(json.dumps(doc))

    def test_missing_key(self):
        doc = json.loads(serialize_instance(cycle_instance(3)))
        del doc["arcs"][0]["head"]
        with pytest.raises(ParseError, match="missing"):
            parse_instance(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ParseError):
            parse_instance("{nodes:")

    def test_serialization_is_deterministic(self):
        instance = random_instance(7, 5, 8, 3, 3)
        assert serialize_instance(instance) == serialize_instance(instance)


class TestFlowFormat:
    def test_round_trip_schedule(self):
        flow = wait_schedule_with_storage(3)
        assert parse_flow(serialize_flow(flow)) == flow

    @given(st.integers(min_value=3, max_value=9))
    def test_round_trip_all_schedules(self, k: int):
        flow = wait_schedule_with_storage(k)
        assert parse_flow(serialize_flow(flow)) == flow

    def test_negative_rate_rejected(self):
        doc = json.loads(serialize_flow(wait_schedule_with_storage(3)))
        doc["rates"][0]["pieces"][0]["rate"] = "-1"
        with pytest.raises(ParseError, match="rate must be nonnegative"):
            parse_flow(json.dumps(doc))

    def test_duplicate_arc_commodity_pair_rejected(self):
        doc = json.loads(serialize_flow(wait_schedule_with_storage(3)))
        doc["rates"].append(doc["rates"][0])
        with pytest.raises(ParseError, match="duplicate"):
            parse_flow(json.dumps(doc))
