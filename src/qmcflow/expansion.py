"""Discrete time expansion of an instance over an integer horizon.

The expansion has one copy (v, theta) of every node for each integer
time theta in 0..T, and two kinds of arcs between copies:

* movement copies (a, theta) from (tail(a), theta) to (head(a), theta +
  transit(a)), one for each theta in 0..T-transit(a)-1, with the arc's
  capacity. A unit of flow on the copy stands for flow entering arc a
  during [theta, theta+1).
* holdover arcs (v, theta) -> (v, theta+1) for theta in 0..T-1, with
  unbounded capacity, usable by a commodity only where the storage mode
  allows: everywhere when storage is permitted, and only at the
  commodity's own source and sink otherwise. Holdover at the source
  encodes free departure timing for the supply placed at (source, 0);
  holdover at the sink collects arrivals until the demand is read off at
  (sink, T).

The checker checks an infeasible verdict's cut by one backward pass of
its own over this grid (qmcflow.checker.check_cut), which shares no code
with the path helpers below.

The solver decides every probe over paths rather than over node-arc
variables, and the storage mode reaches it only through the helpers
here. A path of commodity i departs (s_i, theta), takes movement copies
and ends on its first arrival at t_i, never re-entering s_i; it is a
tuple of movement copies (arc id, theta). Between two copies it waits
at the node it is at, which storage allows everywhere and its absence
nowhere, where a path is fully described by its departure time and its
route. Three helpers hold the grid rule for paths:
route_departures lists the commodity's fewest-transit route over open
arcs shifted to every departure that fits, cheapest_path prices a
commodity by a shortest path under integer lengths on movement copies
(a Dijkstra search layer by layer in time, with zero-transit arcs inside
a layer and free holdovers from one layer to the next where the mode
allows), and flow_from_paths turns path values into a schedule: a flow
over time whose rate on each movement copy is the sum of the values of
the paths through it, and whose horizon is its last arrival. Where a
path waits is implied by its copies, so the schedule needs no holdover
values. The Dijkstra search behind
route_departures, fewest_transit_route, is also the one that gives the
solver's horizon search its lower bound, and its routes give the search
its upper end: route_witness repeats each of them over time without
waiting (a temporally repeated flow; Ford and Fulkerson, 1962), a
schedule built with no LP.

With a unit step and integer transit times the expansion is exact for
schedules whose rates are constant on unit intervals: balances of such
schedules are piecewise linear with integer breakpoints, so constraints
checked at the grid points hold everywhere in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import ceil
from typing import Mapping, Sequence

from .core import Arc, FlowOverTime, Instance, Network, Piece, StepFunction, StorageMode
from .core import _require_horizon, _require_mode, format_rational, validate_instance

__all__ = [
    "ExpandedNetwork",
    "Path",
    "build_time_expanded",
    "cheapest_path",
    "fewest_transit_route",
    "flow_from_paths",
    "route_departures",
    "route_witness",
]

# A path: its movement copies (arc id, theta) in travel order.
Path = tuple[tuple[str, int], ...]

# Tuples in this module are built from lists, not from generators.
# tuple() of a generator allocates 10 slots and resizes, so a short result
# is taken from one of CPython's per-size tuple free lists and freed into
# another. Only a full collection empties those lists, and over many small
# solves the imbalance raised peak memory by about 2 MB.


@dataclass(frozen=True)
class ExpandedNetwork:
    """The time expansion of an instance; see the module docstring.

    The mode says where commodity i may use holdover arcs: at every node
    with storage, and only at s_i and t_i without. The copies are listed
    on demand, for describe() and for readers outside the solver, which
    never enumerates them.
    """

    instance: Instance
    horizon: int
    mode: StorageMode

    @property
    def movement_copies(self) -> tuple[tuple[str, int], ...]:
        """Every movement copy (arc id, theta), sorted lexicographically."""
        arcs = self.instance.network.arcs
        copies = [(arc.id, theta) for arc in arcs for theta in range(self.horizon - arc.transit)]
        return tuple(sorted(copies))

    @property
    def holdover_arcs(self) -> tuple[tuple[str, int], ...]:
        """Every holdover arc (node, theta), sorted lexicographically."""
        nodes = self.instance.network.nodes
        return tuple(sorted([(node, theta) for node in nodes for theta in range(self.horizon)]))

    def describe(self) -> str:
        """Dump of the copies, and of the commodities each holdover arc
        admits under the mode. The text is pinned by the tests and CI."""
        network = self.instance.network
        copies, holdovers = self.movement_copies, self.holdover_arcs
        lines = [
            f"time expansion: T={self.horizon} mode={self.mode.value}",
            f"node copies: {len(network.nodes)} nodes x {self.horizon + 1} layers"
            f" = {len(network.nodes) * (self.horizon + 1)}",
            f"movement copies: {len(copies)}",
        ]
        for arc_id, theta in copies:
            arc = network.arc_by_id[arc_id]
            lines.append(
                f"  {arc_id}@{theta}: ({arc.tail},{theta}) -> ({arc.head},{theta + arc.transit})"
                f" cap {format_rational(arc.capacity)}"
            )
        lines.append(f"holdover arcs: {len(holdovers)}")
        storage = self.mode is StorageMode.WITH_STORAGE
        commodities = self.instance.commodities
        for node, theta in holdovers:
            allowed = ",".join(
                str(i)
                for i, goods in enumerate(commodities)
                if storage or node in (goods.source, goods.sink)
            )
            lines.append(f"  {node}@{theta} -> {node}@{theta + 1} commodities [{allowed}]")
        return "\n".join(lines) + "\n"


def build_time_expanded(instance: Instance, horizon: int, mode: StorageMode) -> ExpandedNetwork:
    """Construct the time expansion.

    Raises ValueError for a horizon that is not a positive integer, a
    mode that is not a StorageMode, and an instance that
    validate_instance rejects. A horizon too short for any movement
    simply yields an expansion with no movement copies.
    """
    _require_horizon(horizon)
    _require_mode(mode)
    report = validate_instance(instance)
    if not report.ok:
        raise ValueError(f"invalid instance: {report}")
    return ExpandedNetwork(instance, horizon, mode)


def fewest_transit_route(network: Network, source: str, sink: str) -> list[Arc] | None:
    """A source-sink route of least total transit over arcs of positive
    capacity, or None if there is none. Ties go to the smaller node name
    and then to the arc first in network.arcs, so the route is
    deterministic; it is simple, since it is read off the tree of a
    Dijkstra search."""
    best = {source: 0}
    via: dict[str, Arc] = {}
    heap = [(0, source)]
    while heap:
        dist, node = heappop(heap)
        if dist > best[node]:
            continue
        if node == sink:
            break
        for arc in network.out_arcs[node]:
            candidate = dist + arc.transit
            if arc.capacity > 0 and candidate < best.get(arc.head, candidate + 1):
                best[arc.head] = candidate
                via[arc.head] = arc
                heappush(heap, (candidate, arc.head))
    if sink not in best:
        return None
    route = []
    node = sink
    while node != source:
        route.append(via[node])
        node = via[node].tail
    route.reverse()
    return route


def route_departures(expansion: ExpandedNetwork, commodity: int) -> list[Path]:
    """The commodity's fewest-transit route over arcs of positive
    capacity, shifted to every departure theta whose copies all exist
    (theta + the route's transit <= T - 1), earliest first. Empty if no
    such route exists or the horizon is too short for it."""
    instance = expansion.instance
    goods = instance.commodities[commodity]
    route = fewest_transit_route(instance.network, goods.source, goods.sink)
    if route is None:
        return []
    offsets = []
    transit = 0
    for arc in route:
        offsets.append((arc.id, transit))
        transit += arc.transit
    return [
        tuple([(arc_id, theta + offset) for arc_id, offset in offsets])
        for theta in range(expansion.horizon - transit)
    ]


def route_witness(instance: Instance, routes: Mapping[int, Sequence[Arc]]) -> FlowOverTime:
    """The temporally repeated flow along routes, which maps commodity
    indices to a source-sink route each, over arcs of positive capacity.

    Each commodity i in routes with demand d_i > 0 is sent at the rate
    d_i/S on every arc of its route during [o, o + S), where o is the
    transit of the route before that arc, so it never waits. S is the
    least integer at or above the largest load, the sum of d_i / c_e over
    the routes through an arc e, so no arc carries more than its
    capacity, and every piece lies on the unit grid. The flow has one
    piece per (arc, commodity) and ends at its last arrival, S plus the
    largest route transit (at least 1). Commodities of zero demand are
    skipped. Nothing else is checked here: the solver hands the flow to
    qmcflow.checker.check_flow before relying on it.
    """
    commodities = instance.commodities
    demanded = {i: route for i, route in routes.items() if commodities[i].demand > 0}
    load: dict[str, Fraction] = {}
    for i, route in demanded.items():
        for arc in route:
            load[arc.id] = load.get(arc.id, 0) + commodities[i].demand / arc.capacity
    span = ceil(max(load.values(), default=0))
    transit = max([sum([arc.transit for arc in route]) for route in demanded.values()], default=0)
    horizon = Fraction(max(1, span + transit))
    rates = {}
    for i, route in demanded.items():
        rate = commodities[i].demand / span
        offset = 0
        for arc in route:
            piece = Piece(Fraction(offset), Fraction(offset + span), rate)
            rates[arc.id, i] = StepFunction(horizon, (piece,))
            offset += arc.transit
    return FlowOverTime(horizon, dict(sorted(rates.items())))


def cheapest_path(
    expansion: ExpandedNetwork, commodity: int, lengths: Mapping[tuple[str, int], int]
) -> tuple[int, Path] | None:
    """The least total length of a path of the commodity, and one such
    path, or None if it has no path at all.

    lengths maps movement copies to nonnegative integers; absent copies
    have length 0. The search runs layer by layer in time: every source
    copy (s_i, theta) starts at 0, a copy with positive transit relaxes
    a later layer, and a zero-transit copy stays inside its layer, which
    is scanned as one Dijkstra search. Once a layer is scanned, the
    labels of the nodes where the mode lets the commodity wait (with
    storage every node but s_i and t_i, without storage none) are
    carried to the next layer at no cost (a free holdover); a carried
    label keeps the copy that entered its node.
    Arcs into s_i are not taken and t_i is not left. Ties go to the
    earliest arrival, then to the first label set.
    """
    instance = expansion.instance
    goods = instance.commodities[commodity]
    source, sink = goods.source, goods.sink
    out_arcs = instance.network.out_arcs
    waits = set()
    if expansion.mode is StorageMode.WITH_STORAGE:
        waits = instance.network.node_set - {source, sink}
    last = expansion.horizon - 1
    # labels[theta][node] = (length, copy taken into it, tail of that copy)
    labels: list[dict[str, tuple]] = [{} for _ in range(expansion.horizon)]
    best: tuple[int, int] | None = None
    for theta, layer in enumerate(labels):
        layer[source] = (0, None, None)
        heap = [(label[0], node) for node, label in layer.items()]
        heapify(heap)
        settled = set()
        while heap:
            dist, node = heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            if node == sink:
                if best is None or dist < best[0]:
                    best = (dist, theta)
                continue
            for arc in out_arcs[node]:
                arrival = theta + arc.transit
                if arrival > last or arc.head == source:
                    continue
                if not arc.transit and arc.head in settled:
                    continue
                copy = (arc.id, theta)
                candidate = dist + lengths.get(copy, 0)
                target = labels[arrival]
                old = target.get(arc.head)
                if old is None or candidate < old[0]:
                    target[arc.head] = (candidate, copy, node)
                    if not arc.transit:
                        heappush(heap, (candidate, arc.head))
        if waits and theta < last:
            carried = labels[theta + 1]
            for node, label in layer.items():
                if node in waits:
                    old = carried.get(node)
                    if old is None or label[0] < old[0]:
                        carried[node] = label
    if best is None:
        return None
    path = []
    _, copy, tail = labels[best[1]][sink]
    while copy is not None:
        path.append(copy)
        _, copy, tail = labels[copy[1]][tail]
    path.reverse()
    return best[0], tuple(path)


def flow_from_paths(
    expansion: ExpandedNetwork,
    paths: Sequence[tuple[int, Path]],
    values: Sequence[Fraction],
) -> FlowOverTime:
    """The flow over time that sends values[j] along paths[j] =
    (commodity, path).

    Commodity i's rate on arc a during [theta, theta+1) is the sum of the
    values of i's paths through copy (a, theta); a zero value adds
    nothing. The horizon is the last arrival: the largest theta + 1 +
    transit over the last copy (a, theta) of each path with a nonzero
    value, and at least 1. Paths and values of unequal length raise
    ValueError, and so does a negative rate (StepFunction rejects it).
    """
    arc_by_id = expansion.instance.network.arc_by_id
    totals: dict[tuple[str, int], dict[int, Fraction]] = {}
    arrival = 1
    for (i, path), value in zip(paths, values, strict=True):
        if value:
            for arc_id, theta in path:
                rates = totals.setdefault((arc_id, i), {})
                rates[theta] = rates.get(theta, 0) + value
            arc_id, theta = path[-1]
            arrival = max(arrival, theta + 1 + arc_by_id[arc_id].transit)
    horizon = Fraction(arrival)
    steps = {}
    for key, rates in sorted(totals.items()):
        pieces = [
            Piece(Fraction(theta), Fraction(theta + 1), rate) for theta, rate in sorted(rates.items())
        ]
        steps[key] = StepFunction(horizon, tuple(pieces))
    return FlowOverTime(horizon, steps)
