"""Exact checking of both kinds of certificate: flows over time, which
prove a horizon feasible, and cuts, which prove one infeasible.

A flow is feasible for an instance when three families of conditions
hold:

* capacity: on every arc, the commodities' rates sum to at most the arc
  capacity at every instant;
* conservation: for each commodity, at every node other than its source,
  the cumulative balance (inflow shifted by transit times, minus outflow)
  is nonnegative at every time; when storage is forbidden the balance
  must be exactly zero at nodes other than the commodity's source and
  sink;
* demand: at the horizon T, counting only flow that has fully arrived
  (inflow integrated to T minus the arc's transit), each commodity's
  balance is +demand at its sink, -demand at its source and 0 elsewhere.

Rates are piecewise constant, so each cumulative balance is a piecewise
linear function of time. A piecewise linear function is nonnegative
(or identically zero) on an interval if and only if it is so at its
breakpoints, which is why checking the finitely many breakpoints below
is exact and complete, not a sampling heuristic.

check_flow converts each distinct rate function to integer units once:
times to multiples of 1/tu, where tu is the lcm of the horizon's and
every piece boundary's denominator, and rates to multiples of 1/ru,
where ru is the lcm of the rate denominators, so amounts are integer
multiples of 1/(tu*ru). One pass over the entries adds each piece to
its arc's rate changes and to the slope changes of the balances at the
arc's tail and head. The capacity sweep then keeps a running total rate
per arc over sorted breakpoints. The balance sweep advances each
(commodity, node) balance by its current slope between breakpoints,
reports conservation violations at the breakpoints, and compares its
value at the horizon with the demand: at T, the balance counts arrivals
through T minus each in-arc's transit and all departures, which is
exactly the demand condition. Fractions are built only for violations.

A cut for an integer horizon T is a length function l >= 0 on the
movement copies (a, theta) of the time expansion (qmcflow.expansion).
By the Japanese theorem (Iri 1971; Onaga and Kakusho 1971) it proves T
infeasible when sum_i d_i * dist_l(i) > sum_e c_e * l_e, dist_l(i)
being the least length from (s_i, 0) to (t_i, T), holdovers at length
0. check_cut finds each distance by one backward pass over the time
grid, which shares no code with the solver's pricing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from .core import Commodity, FlowOverTime, Instance, Network, StorageMode, format_rational
from .core import _require_horizon, _require_mode

__all__ = [
    "CAPACITY",
    "CONSERVATION",
    "STRICT_CONSERVATION",
    "DEMAND",
    "CUT",
    "Violation",
    "ViolationReport",
    "check_cut",
    "check_flow",
]

CAPACITY = "capacity"
CONSERVATION = "conservation"
STRICT_CONSERVATION = "strict-conservation"
DEMAND = "demand"
CUT = "cut"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Violation:
    """One violated feasibility condition.

    location is an arc id for capacity violations and negative lengths,
    empty for a cut's inequality and a node id otherwise. commodity is
    None when the condition aggregates over all commodities (capacity,
    cut). start == end denotes a single time point. The magnitude is the
    exact rational amount by which the condition fails.
    """

    kind: str
    location: str
    commodity: int | None
    start: Fraction
    end: Fraction
    magnitude: Fraction

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "location": self.location,
                "commodity": self.commodity,
                "from": format_rational(self.start),
                "to": format_rational(self.end),
                "magnitude": format_rational(self.magnitude),
            }
        )


@dataclass(frozen=True)
class ViolationReport:
    """All violations found by a check; empty exactly when feasible."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def of_kind(self, kind: str) -> tuple[Violation, ...]:
        return tuple([v for v in self.violations if v.kind == kind])

    def to_json_lines(self) -> str:
        return "".join(v.to_json() + "\n" for v in self.violations)


def check_flow(flow: FlowOverTime, instance: Instance, mode: StorageMode) -> ViolationReport:
    """All capacity, conservation and demand violations of the flow.

    Capacity violations come first, then conservation and
    strict-conservation violations, then demand violations, each group
    in arc or (commodity, node) order. A mode that is not a StorageMode,
    and a flow that references an arc or commodity the instance lacks,
    raise ValueError.
    """
    _require_mode(mode)
    # Entries may share a StepFunction; flow.rates keeps each id valid.
    steps = {id(step): step for step in flow.rates.values()}
    time_denominators = {flow.horizon.denominator}
    rate_denominators = {1}
    for step in steps.values():
        for piece in step.pieces:
            time_denominators.add(piece.start.denominator)
            time_denominators.add(piece.end.denominator)
            rate_denominators.add(piece.rate.denominator)
    tu = lcm(*time_denominators)
    ru = lcm(*rate_denominators)
    # Each distinct step's pieces (start, end, rate) in units of 1/tu and 1/ru.
    units = {
        key: [
            (
                p.start.numerator * (tu // p.start.denominator),
                p.end.numerator * (tu // p.end.denominator),
                p.rate.numerator * (ru // p.rate.denominator),
            )
            for p in step.pieces
        ]
        for key, step in steps.items()
    }
    # One pass over the entries gives, per arc id, the change of the
    # total rate at each breakpoint, and per (commodity, node) the change
    # of the balance's slope: an in-arc's piece raises it while its flow
    # arrives, an out-arc's piece lowers it while its flow departs.
    changes: dict[str, dict[int, int]] = {}
    slopes: dict[tuple[int, str], dict[int, int]] = {}
    arc_by_id = instance.network.arc_by_id
    commodity_count = len(instance.commodities)
    for (arc_id, commodity), step in flow.rates.items():
        arc = arc_by_id.get(arc_id)
        if arc is None:
            raise ValueError(f"flow references unknown arc {arc_id!r}")
        if not 0 <= commodity < commodity_count:
            raise ValueError(f"flow references unknown commodity {commodity}")
        shift = arc.transit * tu
        change = changes.setdefault(arc_id, {})
        arriving = slopes.setdefault((commodity, arc.head), {})
        departing = slopes.setdefault((commodity, arc.tail), {})
        for start, end, rate in units[id(step)]:
            change[start] = change.get(start, 0) + rate
            change[end] = change.get(end, 0) - rate
            arriving[start + shift] = arriving.get(start + shift, 0) + rate
            arriving[end + shift] = arriving.get(end + shift, 0) - rate
            departing[start] = departing.get(start, 0) - rate
            departing[end] = departing.get(end, 0) + rate
    horizon = flow.horizon.numerator * (tu // flow.horizon.denominator)
    return ViolationReport(
        tuple(
            _capacity_violations(instance, tu, ru, changes)
            + _balance_violations(instance, mode, tu, ru, horizon, slopes)
        )
    )


def _capacity_violations(
    instance: Instance, tu: int, ru: int, changes: dict[str, dict[int, int]]
) -> list[Violation]:
    """Compare total rates against capacity on each arc.

    One violation is emitted per arc and per maximal time interval on
    which the commodities' total rate is constant and exceeds capacity;
    its magnitude is the excess over capacity.
    """
    violations: list[Violation] = []
    for arc in instance.network.arcs:
        change = changes.get(arc.id)
        if not change:
            continue
        # An integer total exceeds capacity*ru iff it exceeds its floor.
        limit = arc.capacity.numerator * ru // arc.capacity.denominator
        points = sorted(change)
        last = points[-1]
        lo = points[0]
        total = change[lo]
        # Close a stretch of constant total wherever the total changes
        # and at the last point, so that reported intervals are maximal.
        for point in points[1:]:
            delta = change[point]
            if delta or point == last:
                if total > limit:
                    violations.append(
                        Violation(
                            CAPACITY,
                            arc.id,
                            None,
                            Fraction(lo, tu),
                            Fraction(point, tu),
                            Fraction(total, ru) - arc.capacity,
                        )
                    )
                lo = point
                total += delta
    return violations


def _balance_violations(
    instance: Instance,
    mode: StorageMode,
    tu: int,
    ru: int,
    horizon: int,
    slopes: dict[tuple[int, str], dict[int, int]],
) -> list[Violation]:
    """Sweep each commodity's cumulative balance at each node up to T.

    At every node except the commodity's source, the balance must be
    nonnegative at all times (flow cannot leave a node before it arrived
    there). With NO_INTERMEDIATE_STORAGE it must additionally be exactly
    zero at nodes other than the commodity's source and sink; a positive
    balance there means flow was stored and is reported as a
    strict-conservation violation. The balance at T must be +demand at
    the sink, -demand at the source and zero elsewhere; the demand
    violation's magnitude is the absolute deviation. Conservation
    violations are returned before demand violations.
    """
    conservation: list[Violation] = []
    demand: list[Violation] = []
    scale = tu * ru
    strict = mode is StorageMode.NO_INTERMEDIATE_STORAGE
    end = Fraction(horizon, tu)
    for index, commodity in enumerate(instance.commodities):
        for node in instance.network.nodes:
            if node == commodity.sink:
                expected = commodity.demand
            elif node == commodity.source:
                expected = -commodity.demand
            else:
                expected = _ZERO
            change = slopes.get((index, node), {})
            if not change and expected == 0:
                continue
            change.setdefault(horizon, 0)
            at_source = node == commodity.source
            storage_forbidden = strict and node != commodity.sink
            # The balance is 0 at time 0, so no point at 0 is reported.
            value = slope = previous = 0
            for point in sorted(change):
                if point > horizon:
                    break
                value += slope * (point - previous)
                previous = point
                slope += change[point]
                if value < 0:
                    kind, magnitude = CONSERVATION, -value
                elif storage_forbidden and value > 0:
                    kind, magnitude = STRICT_CONSERVATION, value
                else:
                    continue
                if not at_source:
                    theta = Fraction(point, tu)
                    conservation.append(
                        Violation(kind, node, index, theta, theta, Fraction(magnitude, scale))
                    )
            # value is now the balance at T: arrivals through T minus
            # each in-arc's transit, minus all departures.
            if value * expected.denominator != expected.numerator * scale:
                demand.append(
                    Violation(DEMAND, node, index, end, end, abs(Fraction(value, scale) - expected))
                )
    return conservation + demand


def check_cut(
    horizon: int,
    lengths: Mapping[tuple[str, int], int | Fraction],
    instance: Instance,
    mode: StorageMode,
) -> ViolationReport:
    """The violations of a cut meant to prove the horizon infeasible.

    lengths maps movement copies (arc id, theta) to rationals; absent
    copies have length 0. Each negative length is a CUT violation at its
    arc over [theta, theta + 1), and then no distance is computed.
    Otherwise a cut failing the inequality gives one CUT violation over
    [0, T], by how far the capacity side exceeds the demand side. A
    commodity with positive demand and no walk to (t_i, T) satisfies it
    on its own. A horizon that is not a positive integer, a mode that is
    not a StorageMode and an arc the instance lacks raise ValueError.
    """
    _require_horizon(horizon)
    _require_mode(mode)
    arc_by_id = instance.network.arc_by_id
    negative = []
    for (arc_id, theta), value in sorted(lengths.items()):
        if arc_id not in arc_by_id:
            raise ValueError(f"cut references unknown arc {arc_id!r}")
        if value < 0:
            start, end = Fraction(theta), Fraction(theta + 1)
            negative.append(Violation(CUT, arc_id, None, start, end, -Fraction(value)))
    if negative:
        return ViolationReport(tuple(negative))
    budget = sum([arc_by_id[arc_id].capacity * value for (arc_id, _), value in lengths.items()])
    needed = _ZERO
    for commodity in instance.commodities:
        if commodity.demand > 0:
            dist = _distance_to_sink(horizon, lengths, instance.network, commodity, mode)
            if dist is None:
                return ViolationReport(())
            needed += commodity.demand * dist
    if needed > budget:
        return ViolationReport(())
    return ViolationReport((Violation(CUT, "", None, _ZERO, Fraction(horizon), budget - needed),))


def _distance_to_sink(
    horizon: int, lengths: Mapping, network: Network, commodity: Commodity, mode: StorageMode
) -> int | Fraction | None:
    """dist_l((s_i, 0), (t_i, T)), or None if (t_i, T) is unreachable.

    Layer theta holds the least length from each (v, theta) to (t_i, T),
    from the later layers: the holdovers the mode allows (every node with
    storage, s_i and t_i without) at length 0, and each movement copy
    (a, theta) with theta + transit(a) <= T - 1 at length l(a, theta).
    Zero-transit copies stay inside the layer and are relaxed to a fixed
    point, which is reached because no length is negative.
    """
    with_storage = mode is StorageMode.WITH_STORAGE
    waits = network.nodes if with_storage else (commodity.source, commodity.sink)
    moving = [arc for arc in network.arcs if arc.transit]
    instant = [arc for arc in network.arcs if not arc.transit]
    # layers[theta][v]: least length from (v, theta) to (t_i, T).
    layers: list[dict[str, int]] = [{} for _ in range(horizon)] + [{commodity.sink: 0}]
    for theta in range(horizon - 1, -1, -1):
        layer, above = layers[theta], layers[theta + 1]
        for node in waits:
            if node in above:
                layer[node] = above[node]
        for arc in moving:
            arrival = theta + arc.transit
            if arrival < horizon and arc.head in layers[arrival]:
                candidate = layers[arrival][arc.head] + lengths.get((arc.id, theta), 0)
                if candidate < layer.get(arc.tail, candidate + 1):
                    layer[arc.tail] = candidate
        changed = True
        while changed:
            changed = False
            for arc in instant:
                if arc.head in layer:
                    candidate = layer[arc.head] + lengths.get((arc.id, theta), 0)
                    if candidate < layer.get(arc.tail, candidate + 1):
                        layer[arc.tail] = candidate
                        changed = True
    return layers[0].get(commodity.source)
