"""Core domain types, validation, reachability, the tests' transit
reference and the file formats."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given
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
    validate_instance,
)
from qmcflow.instances import (
    cycle_instance,
    random_instance,
    wait_schedule_with_storage,
    wave_schedule_no_storage,
)

from helpers import (
    ONE_DEFECT_CASES,
    one_defect_instance,
    reference_serialize_flow,
    reference_serialize_instance,
    transit_distances,
)


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

    @pytest.mark.parametrize("nodes, arcs, commodity, defect", ONE_DEFECT_CASES)
    def test_each_defect_is_reported_alone(self, nodes, arcs, commodity, defect):
        # The report names exactly the one defect the case adds.
        report = validate_instance(one_defect_instance(nodes, arcs, commodity))
        assert report.defects == (defect,)
        assert str(report) == f"{defect.invariant}: {defect.element}: {defect.detail}"

    def test_report_str_of_a_valid_instance_is_ok(self):
        assert str(validate_instance(two_node_instance())) == "ok"

    def test_report_str_lists_every_defect_on_its_own_line(self):
        network = Network(("v0", "v1"), (Arc("a0", "v0", "v0", Fraction(-1), -1),))
        report = validate_instance(Instance(network, (Commodity("v0", "v1", Fraction(-1)),)))
        assert str(report).split("\n") == [
            "self-loop: a0: tail and head are both 'v0'",
            "negative capacity: a0: capacity -1 is negative",
            "negative transit: a0: transit -1 is negative",
            "negative demand: commodity 0: demand -1 is negative",
            "sink unreachable: commodity 0: no directed path from 'v0' to 'v1'",
        ]


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

    # The transit tests below check the test reference's Dijkstra search
    # (helpers.transit_distances), which the horizon-bound test of the
    # package's fewest_transit_route relies on.

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
        assert transit_distances(network, "x") == {"x": 0, "m": 1, "t": 1}
        assert transit_distances(network, "t") == {"t": 0}

    def test_takes_the_cheaper_parallel_arc(self):
        network = Network(
            ("u", "v"),
            (Arc("slow", "u", "v", Fraction(1), 5), Arc("fast", "u", "v", Fraction(1), 2)),
        )
        assert transit_distances(network, "u") == {"u": 0, "v": 2}

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


# Ids that take every branch of the JSON string escaper: empty strings,
# quotes, backslashes, control and non-ASCII characters, a lone surrogate.
_ids = st.text(
    st.sampled_from('a0"\\/\x00\x1f\n\x7f\u00e9\u20ac\U0001f600\ud800') | st.characters(), max_size=4
)


@st.composite
def instances(draw) -> Instance:
    """An instance with arbitrary-text ids whose arc and commodity lists may
    be empty. It keeps the format's constraints (nonnegative capacities,
    transits and demands), not the graph invariants of validate_instance."""
    nodes = draw(st.lists(_ids, max_size=5))
    endpoint = st.sampled_from(nodes) | _ids if nodes else _ids
    amount = st.fractions(min_value=0, max_value=20, max_denominator=12)
    arcs = draw(
        st.lists(st.builds(Arc, _ids, endpoint, endpoint, amount, st.integers(0, 9)), max_size=6)
    )
    commodities = draw(st.lists(st.builds(Commodity, endpoint, endpoint, amount), max_size=3))
    return Instance(Network(tuple(nodes), tuple(arcs)), tuple(commodities))


def _arc_doc(**fields) -> dict:
    return {"id": "a0", "tail": "s", "head": "t", "capacity": "1", "transit": 1, **fields}


def _commodity_doc(**fields) -> dict:
    return {"source": "s", "sink": "t", "demand": "1", **fields}


def _instance_doc(arcs=None, commodities=None, nodes=("s", "t")) -> dict:
    return {
        "nodes": list(nodes),
        "arcs": [_arc_doc()] if arcs is None else arcs,
        "commodities": [_commodity_doc()] if commodities is None else commodities,
    }


# Malformed instance documents and the exact message each raises. A field
# that repeats an earlier arc's or commodity's literal is read directly,
# so several cases put the defect in the second element; the last case of
# each kind has two defects and pins the one reported first.
REJECTED_INSTANCES = {
    "node not a string": (_instance_doc(nodes=["s", 3]), "nodes[1]: must be a string"),
    "arc not an object": (_instance_doc(arcs=[_arc_doc(), ["a1"]]), "arcs[1]: must be a JSON object"),
    "missing capacity": (
        _instance_doc(arcs=[{"id": "a0", "tail": "s", "head": "t", "transit": 1}]),
        "arcs[0]: missing required key 'capacity'",
    ),
    "bad capacity literal": (
        _instance_doc(arcs=[_arc_doc(capacity="x")]),
        "arcs[0].capacity: not a rational literal: 'x'",
    ),
    "bool capacity": (
        _instance_doc(arcs=[_arc_doc(), _arc_doc(id="a1", capacity=True)]),
        "arcs[1].capacity: must be an integer or a 'p/q' string (floats are not exact)",
    ),
    "negative capacity": (
        _instance_doc(arcs=[_arc_doc(capacity=-1)]),
        "arcs[0].capacity: capacity must be nonnegative",
    ),
    "negative capacity seen before": (
        _instance_doc(arcs=[_arc_doc(), _arc_doc(id="a1", capacity="-1"), _arc_doc(id="a2", capacity="-1")]),
        "arcs[1].capacity: capacity must be nonnegative",
    ),
    "fractional transit": (
        _instance_doc(arcs=[_arc_doc(transit="1/2")]),
        "arcs[0].transit: must be an integer, got 1/2",
    ),
    "bool transit": (
        _instance_doc(arcs=[_arc_doc(), _arc_doc(id="a1", transit=True)]),
        "arcs[1].transit: must be an integer or a 'p/q' string (floats are not exact)",
    ),
    "float transit": (
        _instance_doc(arcs=[_arc_doc(transit=1.0)]),
        "arcs[0].transit: must be an integer or a 'p/q' string (floats are not exact)",
    ),
    "negative transit": (
        _instance_doc(arcs=[_arc_doc(), _arc_doc(id="a1", transit=-1)]),
        "arcs[1].transit: transit must be nonnegative",
    ),
    "id not a string": (_instance_doc(arcs=[_arc_doc(), _arc_doc(id=7)]), "arcs[1].id: must be a string"),
    "missing head": (
        _instance_doc(arcs=[{"id": "a0", "tail": "s", "capacity": "1", "transit": 1}]),
        "arcs[0]: missing required key 'head'",
    ),
    "negative capacity, then a bad id": (
        _instance_doc(arcs=[_arc_doc(id=7, capacity="-1")]),
        "arcs[0].capacity: capacity must be nonnegative",
    ),
    "commodity not an object": (_instance_doc(commodities=[None]), "commodities[0]: must be a JSON object"),
    "float demand": (
        _instance_doc(commodities=[_commodity_doc(demand=1.5)]),
        "commodities[0].demand: must be an integer or a 'p/q' string (floats are not exact)",
    ),
    "negative demand seen before": (
        _instance_doc(commodities=[_commodity_doc(demand="-1"), _commodity_doc(demand="-1")]),
        "commodities[0].demand: demand must be nonnegative",
    ),
    "null source": (
        _instance_doc(commodities=[_commodity_doc(), _commodity_doc(source=None)]),
        "commodities[1].source: must be a string",
    ),
    "missing sink": (
        _instance_doc(commodities=[{"source": "s", "demand": "1"}]),
        "commodities[0]: missing required key 'sink'",
    ),
    "negative demand, then a bad sink": (
        _instance_doc(commodities=[_commodity_doc(demand="-1", sink=[])]),
        "commodities[0].demand: demand must be nonnegative",
    ),
}


class TestInstanceFormat:
    def test_round_trip_cycle(self):
        instance = cycle_instance(3)
        assert parse_instance(serialize_instance(instance)) == instance

    @given(st.integers(min_value=0, max_value=500))
    def test_round_trip_random_instances(self, seed: int):
        instance = random_instance(seed, 5, 8, 3, 3)
        assert parse_instance(serialize_instance(instance)) == instance

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=14),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=5),
    )
    def test_round_trip_random_instances_of_any_size(
        self, seed: int, node_max: int, arc_max: int, commodity_max: int, tau_max: int
    ):
        instance = random_instance(seed, node_max, arc_max, commodity_max, tau_max)
        assert parse_instance(serialize_instance(instance)) == instance

    @given(instances())
    def test_round_trip_arbitrary_ids(self, instance: Instance):
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

    @pytest.mark.parametrize("name", sorted(REJECTED_INSTANCES))
    def test_rejection_messages_are_pinned(self, name: str):
        doc, message = REJECTED_INSTANCES[name]
        with pytest.raises(ParseError) as caught:
            parse_instance(json.dumps(doc))
        assert str(caught.value) == message

    def test_literals_of_any_accepted_form(self):
        doc = _instance_doc(
            arcs=[_arc_doc(), _arc_doc(id="a1", capacity=" 3/2 ", transit="2"), _arc_doc(id="a2", capacity=3)],
            commodities=[_commodity_doc(demand=2), _commodity_doc(demand="1")],
        )
        instance = parse_instance(json.dumps(doc))
        assert instance.network.arcs == (
            Arc("a0", "s", "t", Fraction(1), 1),
            Arc("a1", "s", "t", Fraction(3, 2), 2),
            Arc("a2", "s", "t", Fraction(3), 1),
        )
        assert instance.commodities == (Commodity("s", "t", Fraction(2)), Commodity("s", "t", Fraction(1)))
        assert type(instance.network.arcs[1].transit) is int

    def test_serialization_is_deterministic(self):
        instance = random_instance(7, 5, 8, 3, 3)
        assert serialize_instance(instance) == serialize_instance(instance)


def _piece(start="0", end="2", rate="1") -> dict:
    return {"from": start, "to": end, "rate": rate}


def _entry(pieces=None, arc="a0", commodity=0) -> dict:
    return {"arc": arc, "commodity": commodity, "pieces": [_piece()] if pieces is None else pieces}


def _flow_doc(rates=None, horizon="5") -> dict:
    return {"horizon": horizon, "rates": [_entry()] if rates is None else rates}


# One malformed flow document per rejection branch of parse_flow, with the
# exact message it raises. The last four have two defects each and pin
# which one is reported: every piece's literals and signs are read before
# the order of the pieces is checked.
REJECTED_FLOWS = {
    "not an object": ([], "flow: must be a JSON object"),
    "missing horizon": ({"rates": []}, "flow: missing required key 'horizon'"),
    "missing rates": ({"horizon": "5"}, "flow: missing required key 'rates'"),
    "rates not an array": ({"horizon": "5", "rates": {}}, "flow.rates: must be an array"),
    "float horizon": (
        _flow_doc(horizon=5.0),
        "flow.horizon: must be an integer or a 'p/q' string (floats are not exact)",
    ),
    "bool horizon": (
        _flow_doc(horizon=True),
        "flow.horizon: must be an integer or a 'p/q' string (floats are not exact)",
    ),
    "null horizon": (_flow_doc(horizon=None), "flow.horizon: must be an integer or a 'p/q' string"),
    "zero horizon": (_flow_doc(horizon=0), "flow.horizon: horizon must be positive"),
    "entry not an object": (_flow_doc(rates=[3]), "rates[0]: must be a JSON object"),
    "missing arc": (
        _flow_doc(rates=[{"commodity": 0, "pieces": []}]),
        "rates[0]: missing required key 'arc'",
    ),
    "arc not a string": (_flow_doc(rates=[_entry(arc=7)]), "rates[0].arc: must be a string"),
    "fractional commodity": (
        _flow_doc(rates=[_entry(commodity="1/2")]),
        "rates[0].commodity: must be an integer, got 1/2",
    ),
    "bool commodity": (
        _flow_doc(rates=[_entry(commodity=True)]),
        "rates[0].commodity: must be an integer or a 'p/q' string (floats are not exact)",
    ),
    "float commodity": (
        _flow_doc(rates=[_entry(commodity=1.0)]),
        "rates[0].commodity: must be an integer or a 'p/q' string (floats are not exact)",
    ),
    "negative commodity": (
        _flow_doc(rates=[_entry(commodity=-1)]),
        "rates[0].commodity: commodity index must be nonnegative",
    ),
    "duplicate pair": (
        _flow_doc(rates=[_entry(), _entry(commodity="0")]),
        "rates[1]: duplicate rate entry for arc 'a0', commodity 0",
    ),
    "missing pieces": (
        _flow_doc(rates=[{"arc": "a0", "commodity": 0}]),
        "rates[0]: missing required key 'pieces'",
    ),
    "pieces not an array": (_flow_doc(rates=[_entry(pieces={})]), "rates[0].pieces: must be an array"),
    "piece not an object": (
        _flow_doc(rates=[_entry(pieces=["0"])]),
        "rates[0].pieces[0]: must be a JSON object",
    ),
    "missing to": (
        _flow_doc(rates=[_entry(pieces=[{"from": "0", "rate": "1"}])]),
        "rates[0].pieces[0]: missing required key 'to'",
    ),
    "zero denominator": (
        _flow_doc(rates=[_entry(pieces=[_piece(start="1/0")])]),
        "rates[0].pieces[0].from: denominator must be positive: '1/0'",
    ),
    "decimal literal": (
        _flow_doc(rates=[_entry(pieces=[_piece(end="1.5")])]),
        "rates[0].pieces[0].to: not a rational literal: '1.5'",
    ),
    "plus sign": (
        _flow_doc(rates=[_entry(pieces=[_piece(rate="+1")])]),
        "rates[0].pieces[0].rate: not a rational literal: '+1'",
    ),
    "float literal": (
        _flow_doc(rates=[_entry(pieces=[_piece(rate=1.5)])]),
        "rates[0].pieces[0].rate: must be an integer or a 'p/q' string (floats are not exact)",
    ),
    "bool literal": (
        _flow_doc(rates=[_entry(pieces=[_piece(start=False)])]),
        "rates[0].pieces[0].from: must be an integer or a 'p/q' string (floats are not exact)",
    ),
    "null literal": (
        _flow_doc(rates=[_entry(pieces=[_piece(end=None)])]),
        "rates[0].pieces[0].to: must be an integer or a 'p/q' string",
    ),
    "negative from": (
        _flow_doc(rates=[_entry(pieces=[_piece(start="-1")])]),
        "rates[0].pieces[0].from: must be nonnegative",
    ),
    "negative rate": (
        _flow_doc(rates=[_entry(pieces=[_piece(rate="-1")])]),
        "rates[0].pieces[0].rate: rate must be nonnegative",
    ),
    "reversed piece": (
        _flow_doc(rates=[_entry(pieces=[_piece("3", "2")])]),
        "rates[0].pieces: piece 0: empty or reversed interval",
    ),
    "empty piece": (
        _flow_doc(rates=[_entry(pieces=[_piece("2", 2)])]),
        "rates[0].pieces: piece 0: empty or reversed interval",
    ),
    "overlapping piece": (
        _flow_doc(rates=[_entry(pieces=[_piece("0", "2"), _piece("3/2", "3")])]),
        "rates[0].pieces: piece 1: overlaps or is out of order",
    ),
    "out-of-order piece": (
        _flow_doc(rates=[_entry(pieces=[_piece("2", "3"), _piece("0", "1")])]),
        "rates[0].pieces: piece 1: overlaps or is out of order",
    ),
    "piece beyond horizon": (
        _flow_doc(rates=[_entry(pieces=[_piece("4", "11/2")])]),
        "rates[0].pieces: piece 0: not contained in [0, 5)",
    ),
    "piece beyond a fractional horizon": (
        _flow_doc(horizon="7/2", rates=[_entry(pieces=[_piece("0", "4")])]),
        "rates[0].pieces: piece 0: not contained in [0, 7/2)",
    ),
    "two defects across entries": (
        _flow_doc(rates=[_entry(pieces=[_piece(), _piece("3", "4", "-2")]), _entry(arc=9)]),
        "rates[0].pieces[1].rate: rate must be nonnegative",
    ),
    "two defects across pieces": (
        _flow_doc(rates=[_entry(pieces=[_piece("3", "2"), _piece("4", "5", "x")])]),
        "rates[0].pieces[1].rate: not a rational literal: 'x'",
    ),
    "two defects in one piece": (
        _flow_doc(rates=[_entry(pieces=[_piece("-1", "2", "x")])]),
        "rates[0].pieces[0].rate: not a rational literal: 'x'",
    ),
    "reversed piece, then a negative start": (
        _flow_doc(rates=[_entry(pieces=[_piece("2", "1"), _piece("-1", "3")])]),
        "rates[0].pieces[1].from: must be nonnegative",
    ),
}


@st.composite
def flows(draw) -> FlowOverTime:
    """A flow with fractional horizon, piece boundaries and rates; pieces may
    touch, leave gaps, or be absent altogether, and so may the rates."""
    horizon = draw(st.fractions(min_value=Fraction(1, 12), max_value=40, max_denominator=12))
    keys = draw(st.sets(st.tuples(_ids, st.integers(0, 6)), max_size=6))
    rates: dict[tuple[str, int], StepFunction] = {}
    for key in sorted(keys):
        cuts = sorted(draw(st.sets(st.fractions(0, horizon, max_denominator=12), max_size=8)))
        pieces = [
            Piece(lo, hi, draw(st.fractions(min_value=0, max_value=10, max_denominator=30)))
            for lo, hi in zip(cuts, cuts[1:])
            if draw(st.booleans())
        ]
        rates[key] = StepFunction(horizon, tuple(pieces))
    return FlowOverTime(horizon, rates)


class TestFlowFormat:
    @given(flows())
    def test_round_trip_random_flows(self, flow: FlowOverTime):
        assert parse_flow(serialize_flow(flow)) == flow
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

    @pytest.mark.parametrize("name", sorted(REJECTED_FLOWS))
    def test_rejection_messages_are_pinned(self, name: str):
        doc, message = REJECTED_FLOWS[name]
        with pytest.raises(ParseError) as caught:
            parse_flow(json.dumps(doc))
        assert str(caught.value) == message

    def test_repeated_pieces_share_one_step_function(self):
        doc = _flow_doc(rates=[_entry(), _entry(arc="a1"), _entry(arc="a2", pieces=[_piece(rate="2")])])
        rates = parse_flow(json.dumps(doc)).rates
        assert rates["a0", 0] is rates["a1", 0]
        assert rates["a2", 0] is not rates["a0", 0]
        flow = parse_flow(serialize_flow(wait_schedule_with_storage(20)))
        assert len({id(step) for step in flow.rates.values()}) == 39 < len(flow.rates) == 380

    @pytest.mark.parametrize(
        "piece, message",
        [
            (_piece(rate=True), "rates[1].pieces[0].rate: must be an integer or a 'p/q' string (floats are not exact)"),
            (_piece(end=None), "rates[1].pieces[0].to: must be an integer or a 'p/q' string"),
            (_piece(start=0.0), "rates[1].pieces[0].from: must be an integer or a 'p/q' string (floats are not exact)"),
            (_piece(rate=["1"]), "rates[1].pieces[0].rate: must be an integer or a 'p/q' string"),
            ({"from": "0", "to": "2"}, "rates[1].pieces[0]: missing required key 'rate'"),
            ("0", "rates[1].pieces[0]: must be a JSON object"),
        ],
    )
    def test_a_repeated_piece_of_another_type_is_read_afresh(self, piece, message: str):
        doc = _flow_doc(rates=[_entry(), _entry(arc="a1", pieces=[piece])])
        with pytest.raises(ParseError) as caught:
            parse_flow(json.dumps(doc))
        assert str(caught.value) == message

    def test_a_repeated_piece_with_integer_literals_is_equal_but_not_shared(self):
        doc = _flow_doc(rates=[_entry(), _entry(arc="a1", pieces=[_piece(rate=1)])])
        rates = parse_flow(json.dumps(doc)).rates
        assert rates["a1", 0] == rates["a0", 0]
        assert rates["a1", 0] is not rates["a0", 0]

    def test_a_bool_after_an_equal_integer_is_rejected(self):
        # True == 1 and both hash alike, so only string keys may be shared.
        doc = _flow_doc(rates=[_entry(pieces=[_piece(rate=1)]), _entry(arc="a1", pieces=[_piece(rate=True)])])
        with pytest.raises(ParseError) as caught:
            parse_flow(json.dumps(doc))
        assert str(caught.value) == (
            "rates[1].pieces[0].rate: must be an integer or a 'p/q' string (floats are not exact)"
        )

    def test_a_duplicate_pair_with_shared_pieces_is_rejected(self):
        doc = _flow_doc(rates=[_entry(), _entry(arc="a1"), _entry()])
        with pytest.raises(ParseError) as caught:
            parse_flow(json.dumps(doc))
        assert str(caught.value) == "rates[2]: duplicate rate entry for arc 'a0', commodity 0"

    def test_whitespace_and_json_integers_are_accepted(self):
        doc = _flow_doc(
            horizon=" 7/2 ",
            rates=[
                _entry(
                    pieces=[_piece(" 3/2 ", 3, " 1/3"), _piece(3, "7/2", 2)],
                    commodity="2",
                )
            ],
        )
        flow = parse_flow(json.dumps(doc))
        assert flow == FlowOverTime(
            Fraction(7, 2),
            {
                ("a0", 2): StepFunction(
                    Fraction(7, 2),
                    (
                        Piece(Fraction(3, 2), Fraction(3), Fraction(1, 3)),
                        Piece(Fraction(3), Fraction(7, 2), Fraction(2)),
                    ),
                )
            },
        )


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "9" * 5000], ids=["deep", "long-int"])
@pytest.mark.parametrize("parse", [parse_instance, parse_flow], ids=["instance", "flow"])
def test_json_the_decoder_rejects_is_a_parse_error(parse, text: str):
    # Nesting past the decoder's recursion limit, and an integer past the
    # interpreter's digit limit.
    what = parse.__name__.removeprefix("parse_")
    with pytest.raises(ParseError, match=f"^{what}: invalid JSON: "):
        parse(text)


class TestDocumentLayout:
    """The writers give the bytes of json.dumps(doc, indent=2) plus a newline."""

    @given(instances())
    @example(Instance(Network((), ()), ()))
    def test_instances_match_the_reference(self, instance: Instance):
        assert serialize_instance(instance) == reference_serialize_instance(instance)

    @given(flows())
    @example(FlowOverTime(Fraction(1), {}))
    def test_flows_match_the_reference(self, flow: FlowOverTime):
        assert serialize_flow(flow) == reference_serialize_flow(flow)

    def test_k80_documents_match_the_reference(self):
        instance = cycle_instance(80)
        assert serialize_instance(instance) == reference_serialize_instance(instance)
        for flow in (wait_schedule_with_storage(80), wave_schedule_no_storage(80)):
            assert serialize_flow(flow) == reference_serialize_flow(flow)
