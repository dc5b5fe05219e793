"""Time expansion: copies, where each mode allows holdover, and mapping
solutions back."""

from __future__ import annotations

from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmcflow.core import Arc, Commodity, Instance, Network, StorageMode
from qmcflow.checker import STRICT_CONSERVATION, check_flow
from qmcflow.expansion import (
    build_time_expanded,
    cheapest_path,
    fewest_transit_route,
    flow_from_paths,
    route_departures,
    route_witness,
)
from qmcflow.instances import cycle_instance, random_instance

from helpers import (
    assignment_from_flow,
    column_endpoints,
    flow_satisfies_unreduced_lp,
    transit_distances,
    unreduced_columns,
)

WITH = StorageMode.WITH_STORAGE
WITHOUT = StorageMode.NO_INTERMEDIATE_STORAGE


def holdover_nodes(expansion) -> list[set[str]]:
    """Per commodity, the nodes on whose holdover arcs describe() lists it."""
    nodes: list[set[str]] = [set() for _ in expansion.instance.commodities]
    for line in expansion.describe().splitlines():
        if " commodities [" in line:
            node = line.split("@")[0].strip()
            for i in filter(None, line.rpartition("[")[2].rstrip("]").split(",")):
                nodes[int(i)].add(node)
    return nodes


def single_arc_instance(transit: int) -> Instance:
    network = Network(("v0", "v1"), (Arc("a0", "v0", "v1", Fraction(1), transit),))
    return Instance(network, (Commodity("v0", "v1", Fraction(1)),))


class TestConfig:
    """The horizon and mode arguments of build_time_expanded."""

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError, match="horizon must be a positive integer"):
            build_time_expanded(cycle_instance(3), 0, WITH)

    def test_horizon_must_be_an_integer(self):
        with pytest.raises(ValueError, match="horizon must be a positive integer"):
            build_time_expanded(cycle_instance(3), True, WITH)

    def test_mode_must_be_storage_mode(self):
        with pytest.raises(ValueError, match="mode must be a StorageMode"):
            build_time_expanded(cycle_instance(3), 4, "with-storage")  # type: ignore[arg-type]


class TestBuild:
    def test_cycle3_with_storage_counts(self):
        expansion = build_time_expanded(cycle_instance(3), 4, WITH)
        assert "node copies: 3 nodes x 5 layers = 15" in expansion.describe()
        assert len(expansion.movement_copies) == 9
        assert len(expansion.holdover_arcs) == 12
        assert holdover_nodes(expansion) == [set(expansion.instance.network.nodes)] * 3

    def test_cycle3_no_storage_masks(self):
        expansion = build_time_expanded(cycle_instance(3), 4, WITHOUT)
        assert len(expansion.movement_copies) == 9
        assert len(expansion.holdover_arcs) == 12
        for commodity, allowed in enumerate(holdover_nodes(expansion)):
            assert allowed == {f"v{commodity}", f"v{(commodity - 1) % 3}"}

    def test_long_arc_has_single_copy(self):
        expansion = build_time_expanded(single_arc_instance(2), 3, WITH)
        assert expansion.movement_copies == (("a0", 0),)

    def test_arc_longer_than_horizon_has_no_copies(self):
        expansion = build_time_expanded(single_arc_instance(5), 3, WITH)
        assert expansion.movement_copies == ()

    def test_fractional_transit_rejected(self):
        network = Network(
            ("v0", "v1"),
            (Arc("a0", "v0", "v1", Fraction(1), Fraction(1, 2)),),  # type: ignore[arg-type]
        )
        instance = Instance(network, (Commodity("v0", "v1", Fraction(1)),))
        with pytest.raises(ValueError, match="transit"):
            build_time_expanded(instance, 3, WITH)

    @given(st.integers(min_value=3, max_value=8), st.integers(min_value=1, max_value=12))
    def test_copy_counts_follow_the_construction(self, k: int, horizon: int):
        expansion = build_time_expanded(cycle_instance(k), horizon, WITH)
        shape = f"node copies: {k} nodes x {horizon + 1} layers = {k * (horizon + 1)}\n"
        assert shape in expansion.describe()
        assert len(expansion.movement_copies) == k * max(0, horizon - 1)
        assert len(expansion.holdover_arcs) == k * horizon

    def test_movement_variable_order_is_lexicographic(self):
        # The test reference's node-arc columns: movement columns, then
        # holdover columns, each sorted by (copy, commodity).
        columns = unreduced_columns(build_time_expanded(cycle_instance(3), 4, WITH))
        movement = [key for key in columns if key[0] == "move"]
        holdover = [key for key in columns if key[0] == "hold"]
        assert columns == movement + holdover
        assert movement == sorted(movement)
        assert holdover == sorted(holdover)

    def test_column_endpoints_follow_the_variable_order(self):
        # T=3, transit 2: one movement copy, and the holdovers at v0 and
        # v1, both the commodity's endpoints, at every step.
        expansion = build_time_expanded(single_arc_instance(2), 3, WITHOUT)
        columns = unreduced_columns(expansion)
        holdovers = [(node, theta) for node in ("v0", "v1") for theta in range(3)]
        assert columns == [("move", "a0", 0, 0)] + [("hold", *copy, 0) for copy in holdovers]
        assert list(column_endpoints(expansion, columns)) == [
            (0, ("v0", 0), ("v1", 2), ("a0", 0))
        ] + [(0, (node, theta), (node, theta + 1), None) for node, theta in holdovers]

    def test_describe_mentions_the_shape(self):
        expansion = build_time_expanded(cycle_instance(3), 4, WITHOUT)
        text = expansion.describe()
        assert "T=4" in text
        assert "movement copies: 9" in text
        assert "holdover arcs: 12" in text

    def test_describe_text_is_pinned(self):
        # Every line of the k=3 cycle at T=3, in both modes; only the
        # header's mode and the commodities on the holdover arcs differ.
        shared = (
            "node copies: 3 nodes x 4 layers = 12\n"
            "movement copies: 6\n"
            "  a0@0: (v0,0) -> (v1,1) cap 1\n"
            "  a0@1: (v0,1) -> (v1,2) cap 1\n"
            "  a1@0: (v1,0) -> (v2,1) cap 1\n"
            "  a1@1: (v1,1) -> (v2,2) cap 1\n"
            "  a2@0: (v2,0) -> (v0,1) cap 1\n"
            "  a2@1: (v2,1) -> (v0,2) cap 1\n"
            "holdover arcs: 9\n"
        )
        expected = {
            WITH: "time expansion: T=3 mode=with-storage\n" + shared + (
                "  v0@0 -> v0@1 commodities [0,1,2]\n"
                "  v0@1 -> v0@2 commodities [0,1,2]\n"
                "  v0@2 -> v0@3 commodities [0,1,2]\n"
                "  v1@0 -> v1@1 commodities [0,1,2]\n"
                "  v1@1 -> v1@2 commodities [0,1,2]\n"
                "  v1@2 -> v1@3 commodities [0,1,2]\n"
                "  v2@0 -> v2@1 commodities [0,1,2]\n"
                "  v2@1 -> v2@2 commodities [0,1,2]\n"
                "  v2@2 -> v2@3 commodities [0,1,2]\n"
            ),
            WITHOUT: "time expansion: T=3 mode=no-storage\n" + shared + (
                "  v0@0 -> v0@1 commodities [0,1]\n"
                "  v0@1 -> v0@2 commodities [0,1]\n"
                "  v0@2 -> v0@3 commodities [0,1]\n"
                "  v1@0 -> v1@1 commodities [1,2]\n"
                "  v1@1 -> v1@2 commodities [1,2]\n"
                "  v1@2 -> v1@3 commodities [1,2]\n"
                "  v2@0 -> v2@1 commodities [0,2]\n"
                "  v2@1 -> v2@2 commodities [0,2]\n"
                "  v2@2 -> v2@3 commodities [0,2]\n"
            ),
        }
        for mode, text in expected.items():
            assert build_time_expanded(cycle_instance(3), 3, mode).describe() == text, mode


def pieces(flow, key) -> list[tuple]:
    return [(p.start, p.end, p.rate) for p in flow.rates[key].pieces]


def held(expansion, flow) -> dict:
    """The nonzero values of the expansion's variables that
    assignment_from_flow reads off the flow, by variable."""
    return {
        key[1:]: value
        for key, value in zip(unreduced_columns(expansion), assignment_from_flow(expansion, flow))
        if value
    }


class TestExtract:
    """flow_from_paths: path values read out as a flow over time."""

    def test_single_copy_becomes_unit_interval(self):
        expansion = build_time_expanded(cycle_instance(3), 4, WITH)
        flow = flow_from_paths(expansion, [(0, (("a0", 2),))], [Fraction(1)])
        assert flow.rates.keys() == {("a0", 0)}
        assert pieces(flow, ("a0", 0)) == [(2, 3, 1)]
        assert flow.horizon == 4

    def test_paths_through_one_copy_are_summed(self):
        expansion = build_time_expanded(cycle_instance(3), 4, WITH)
        paths = [(0, (("a0", 1), ("a1", 2))), (0, (("a0", 1), ("a1", 3)))]
        flow = flow_from_paths(expansion, paths, [Fraction(1, 3), Fraction(1, 2)])
        assert pieces(flow, ("a0", 0)) == [(1, 2, Fraction(5, 6))]
        assert pieces(flow, ("a1", 0)) == [(2, 3, Fraction(1, 3)), (3, 4, Fraction(1, 2))]

    def test_all_zero_solution_is_the_empty_flow(self):
        expansion = build_time_expanded(cycle_instance(3), 4, WITH)
        flow = flow_from_paths(expansion, [(0, (("a0", 2),))], [Fraction(0)])
        assert flow.rates == {}
        assert flow_from_paths(expansion, [], []).rates == {}

    def test_each_copy_becomes_its_own_unit_piece(self):
        # Paths given out of order still give sorted keys and pieces.
        expansion = build_time_expanded(cycle_instance(3), 4, WITH)
        paths = [(1, (("a1", 1),)), (0, (("a0", 1),)), (0, (("a0", 0),))]
        flow = flow_from_paths(expansion, paths, [Fraction(1)] * 3)
        assert list(flow.rates) == [("a0", 0), ("a1", 1)]
        assert pieces(flow, ("a0", 0)) == [(0, 1, 1), (1, 2, 1)]

    def test_horizon_is_the_last_arrival(self):
        # The largest piece end is 3, on all three copies at theta 2, but
        # direct's transit 2 makes its flow arrive last, by 5. The path
        # of value zero would arrive by 8 and does not count.
        expansion = build_time_expanded(relay_instance(), 8, WITH)
        paths = [
            (0, (("direct", 2),)),
            (0, (("hop", 2), ("last", 2))),
            (0, (("direct", 5),)),
        ]
        flow = flow_from_paths(expansion, paths, [Fraction(1), Fraction(1), Fraction(0)])
        assert flow.horizon == 5
        assert {step.domain_end for step in flow.rates.values()} == {5}
        assert flow_from_paths(expansion, [(0, (("hop", 0),))], [Fraction(1)]).horizon == 1
        assert flow_from_paths(expansion, [], []).horizon == 1

    def test_wrong_length_rejected(self):
        expansion = build_time_expanded(cycle_instance(3), 4, WITH)
        paths = [(0, (("a0", 2),))]
        for wrong in ([], [Fraction(1), Fraction(0)]):
            with pytest.raises(ValueError, match="zip"):
                flow_from_paths(expansion, paths, wrong)

    def test_negative_amount_rejected(self):
        expansion = build_time_expanded(cycle_instance(3), 4, WITH)
        with pytest.raises(ValueError, match="negative"):
            flow_from_paths(expansion, [(0, (("a0", 0),))], [Fraction(-1)])


def relay_instance() -> Instance:
    """s -> t directly (transit 2), or s -> v at transit 0 and v -> t at
    transit 1."""
    network = Network(
        ("s", "v", "t"),
        (
            Arc("direct", "s", "t", Fraction(1), 2),
            Arc("hop", "s", "v", Fraction(1), 0),
            Arc("last", "v", "t", Fraction(1), 1),
        ),
    )
    return Instance(network, (Commodity("s", "t", Fraction(2)),))


def two_hop_instance() -> Instance:
    """s -> v -> t, one time unit per hop."""
    network = Network(
        ("s", "v", "t"),
        (Arc("sv", "s", "v", Fraction(1), 1), Arc("vt", "v", "t", Fraction(1), 1)),
    )
    return Instance(network, (Commodity("s", "t", Fraction(1)),))


class TestDeparturePaths:
    """The grid rule of the path LP: paths, which wait in between only
    where the mask allows."""

    def test_route_is_shifted_to_every_departure_that_fits(self):
        # v0 -> v1 -> v2 takes 2 time units; its last copy must arrive
        # by T - 1 = 4, so it can depart at 0, 1 or 2.
        expansion = build_time_expanded(cycle_instance(3), 5, WITHOUT)
        assert route_departures(expansion, 0) == [
            (("a0", 0), ("a1", 1)),
            (("a0", 1), ("a1", 2)),
            (("a0", 2), ("a1", 3)),
        ]
        assert route_departures(build_time_expanded(cycle_instance(3), 2, WITHOUT), 0) == []

    def test_route_takes_the_fewest_transit_over_open_arcs(self):
        network = Network(
            ("s", "t"),
            (Arc("shut", "s", "t", Fraction(0), 1), Arc("open", "s", "t", Fraction(1), 3)),
        )
        instance = Instance(network, (Commodity("s", "t", Fraction(1)),))
        expansion = build_time_expanded(instance, 5, WITHOUT)
        assert route_departures(expansion, 0) == [(("open", 0),), (("open", 1),)]
        expansion = build_time_expanded(relay_instance(), 3, WITHOUT)
        assert route_departures(expansion, 0) == [
            (("hop", 0), ("last", 0)),
            (("hop", 1), ("last", 1)),
        ]

    def test_zero_transit_arcs_stay_inside_their_layer(self):
        expansion = build_time_expanded(relay_instance(), 3, WITHOUT)
        assert cheapest_path(expansion, 0, {}) == (0, (("hop", 0), ("last", 0)))
        # The relay at 0 is dear, so it departs again at 1.
        lengths = {("last", 0): 3, ("direct", 0): 2}
        assert cheapest_path(expansion, 0, lengths) == (0, (("hop", 1), ("last", 1)))
        lengths[("hop", 1)] = 4
        assert cheapest_path(expansion, 0, lengths) == (2, (("direct", 0),))

    def test_no_departure_path_below_the_shortest_transit(self):
        expansion = build_time_expanded(single_arc_instance(2), 2, WITHOUT)
        assert cheapest_path(expansion, 0, {}) is None

    def test_path_values_fill_source_and_sink_holdovers(self):
        # Half a unit departs at 0 and half at 1 over a0 (transit 1), T = 3.
        expansion = build_time_expanded(single_arc_instance(1), 3, WITHOUT)
        half = Fraction(1, 2)
        paths = [(0, (("a0", 0),)), (0, (("a0", 1),))]
        flow = flow_from_paths(expansion, paths, [half, half])
        assert held(expansion, flow) == {
            ("a0", 0, 0): half,
            ("a0", 1, 0): half,
            ("v0", 0, 0): half,
            ("v1", 1, 0): half,
            ("v1", 2, 0): 1,
        }
        assert flow_satisfies_unreduced_lp(expansion, flow)

    def test_a_path_waits_only_with_storage(self):
        # T = 4: both paths that do not wait at v use a dear copy, and
        # the path that departs at 0 and waits at v during [1, 2) uses
        # none.
        lengths = {("sv", 1): 5, ("vt", 1): 5}
        waiting = build_time_expanded(two_hop_instance(), 4, WITH)
        assert cheapest_path(waiting, 0, lengths) == (0, (("sv", 0), ("vt", 2)))
        assert cheapest_path(waiting, 0, {}) == (0, (("sv", 0), ("vt", 1)))
        strict = build_time_expanded(two_hop_instance(), 4, WITHOUT)
        assert cheapest_path(strict, 0, lengths) == (5, (("sv", 0), ("vt", 1)))

    def test_path_values_fill_the_holdovers_where_a_path_waits(self):
        expansion = build_time_expanded(two_hop_instance(), 4, WITH)
        paths = [(0, (("sv", 0), ("vt", 2)))]
        flow = flow_from_paths(expansion, paths, [Fraction(1)])
        assert held(expansion, flow) == {
            ("sv", 0, 0): 1,
            ("v", 1, 0): 1,
            ("vt", 2, 0): 1,
            ("t", 3, 0): 1,
        }
        assert flow_satisfies_unreduced_lp(expansion, flow)
        # Without storage the same flow stores at v, which the checker
        # flags.
        strict = build_time_expanded(two_hop_instance(), 4, WITHOUT)
        flow = flow_from_paths(strict, paths, [Fraction(1)])
        violations = check_flow(flow, two_hop_instance(), WITHOUT).violations
        assert [(v.kind, v.location) for v in violations] == [(STRICT_CONSERVATION, "v")]
        assert not flow_satisfies_unreduced_lp(strict, flow)


def fewest_transit_routes(instance: Instance) -> dict:
    """Every commodity's fewest_transit_route, zero demands included."""
    network = instance.network
    return {
        i: fewest_transit_route(network, goods.source, goods.sink)
        for i, goods in enumerate(instance.commodities)
    }


def assert_route_witness(instance: Instance) -> Fraction:
    """Check route_witness against its construction and the checker in
    both modes, and return its horizon.

    The expected horizon is worked out here: ceil(D), where D is the
    largest sum of d_i / c_e over the routes through an arc e, plus the
    largest route transit, which must equal the reference distance over
    open arcs. Each demanded commodity has one piece per arc of its
    route, at the rate d_i / ceil(D) on [o, o + ceil(D)), o being the
    transit before the arc; commodities of zero demand have none.
    """
    routes = fewest_transit_routes(instance)
    network = instance.network
    open_network = Network(network.nodes, tuple(a for a in network.arcs if a.capacity > 0))
    demands = {i: goods.demand for i, goods in enumerate(instance.commodities) if goods.demand > 0}
    load: dict[str, Fraction] = {}
    transits = []
    for i in demands:
        goods = instance.commodities[i]
        transit = sum(arc.transit for arc in routes[i])
        assert transit == transit_distances(open_network, goods.source)[goods.sink]
        transits.append(transit)
        for arc in routes[i]:
            load[arc.id] = load.get(arc.id, 0) + demands[i] / arc.capacity
    span = ceil(max(load.values()))
    flow = route_witness(instance, routes)
    assert flow.horizon == span + max(transits)
    expected = {}
    for i, demand in demands.items():
        offset = 0
        for arc in routes[i]:
            expected[arc.id, i] = [(offset, offset + span, demand / span)]
            offset += arc.transit
    assert {
        key: [(piece.start, piece.end, piece.rate) for piece in step.pieces]
        for key, step in flow.rates.items()
    } == expected
    for mode in (WITH, WITHOUT):
        assert check_flow(flow, instance, mode).ok, mode
    return flow.horizon


class TestRouteWitness:
    """route_witness: each demanded commodity's route, repeated over
    time without waiting, on the unit grid."""

    def test_cycle_witness_ends_at_the_no_storage_minimum(self):
        # Every arc of the k-cycle lies on k - 1 routes, one of them
        # commodity 0's with demand 2, so D = k and the witness ends at
        # k + (k - 1) = 2k - 1.
        for k in range(3, 49):
            assert assert_route_witness(cycle_instance(k)) == 2 * k - 1, k

    def test_random_solve_instances(self):
        # The 450 instances of the benchmark's random-solve workload at
        # seed 1 (perfbench/workloads.py): every demanded commodity has
        # an open route on each.
        for index in range(450):
            assert_route_witness(random_instance(1_000_000 + index, 6, 10, 3, 3))

    def test_zero_demand_commodities_are_skipped(self):
        # Commodity 1 has demand 0 and a longer route; it adds no piece
        # and neither its load nor its transit counts. Commodity 0 loads
        # a0 with 3 / 2, so S = 2 and the flow ends at 2 + 1.
        network = Network(
            ("v0", "v1", "v2"),
            (Arc("a0", "v0", "v1", Fraction(2), 1), Arc("a1", "v1", "v2", Fraction(1), 5)),
        )
        instance = Instance(
            network, (Commodity("v0", "v1", Fraction(3)), Commodity("v0", "v2", Fraction(0)))
        )
        assert assert_route_witness(instance) == 3
        assert list(route_witness(instance, fewest_transit_routes(instance)).rates) == [("a0", 0)]

    def test_no_demand_is_the_empty_flow_on_one_step(self):
        instance = Instance(single_arc_instance(1).network, (Commodity("v0", "v1", Fraction(0)),))
        flow = route_witness(instance, fewest_transit_routes(instance))
        assert (flow.horizon, flow.rates) == (1, {})
