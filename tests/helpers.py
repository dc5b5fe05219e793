"""Shared test utilities: flow truncation, flow-to-LP transcription and
the unreduced reference LP."""

from __future__ import annotations

from fractions import Fraction

from qmcflow.checker import cumulative
from qmcflow.core import FlowOverTime, Piece, StepFunction
from qmcflow.expansion import ExpandedNetwork
from qmcflow.solver import Constraint, LinearProgram

ZERO = Fraction(0)
ONE = Fraction(1)


def truncate_flow(flow: FlowOverTime, horizon: int | Fraction) -> FlowOverTime:
    """Clip every rate function to [0, horizon), dropping emptied entries."""
    end = Fraction(horizon)
    rates: dict[tuple[str, int], StepFunction] = {}
    for key, step in flow.rates.items():
        pieces = tuple(
            Piece(p.start, min(p.end, end), p.rate) for p in step.pieces if p.start < end
        )
        if pieces:
            rates[key] = StepFunction(end, pieces)
    return FlowOverTime(end, rates)


def _delivered(flow: FlowOverTime, arc_id: str, commodity: int, transit: int, t: int) -> Fraction:
    """Amount of the commodity that has exited the arc by time t."""
    step = flow.rates.get((arc_id, commodity))
    if step is None or t <= transit:
        return ZERO
    return cumulative(step, t - transit)


def _departed(flow: FlowOverTime, arc_id: str, commodity: int, t: int) -> Fraction:
    step = flow.rates.get((arc_id, commodity))
    if step is None or t <= 0:
        return ZERO
    return cumulative(step, t)


def assignment_from_flow(expansion: ExpandedNetwork, flow: FlowOverTime) -> list[Fraction]:
    """Transcribe a unit-interval-constant flow into LP variable values.

    Movement variables take the amount entering the arc during
    [theta, theta+1). Holdover variables take the amount of the
    commodity parked at the node during that interval, where supply not
    yet injected counts as parked at the source. The list is indexed
    exactly like the columns of feasibility_lp_from_expansion, so a
    feasible schedule should produce an assignment every LP row accepts.
    """
    network = expansion.instance.network
    values: list[Fraction] = []
    for arc_id, theta, commodity in expansion.movement_variables:
        step = flow.rates.get((arc_id, commodity))
        if step is None:
            values.append(ZERO)
        else:
            values.append(cumulative(step, theta + 1) - cumulative(step, theta))
    for node, theta, commodity in expansion.holdover_variables:
        com = expansion.instance.commodities[commodity]
        held = ZERO
        for arc in network.in_arcs[node]:
            held += _delivered(flow, arc.id, commodity, arc.transit, theta + 1)
        for arc in network.out_arcs[node]:
            held -= _departed(flow, arc.id, commodity, theta + 1)
        if node == com.source:
            held += com.demand
        values.append(held)
    return values


def unreduced_lp(expansion: ExpandedNetwork) -> LinearProgram:
    """The time-expanded LP with no time window and no row dropped.

    Its variables are all (copy, commodity) pairs the storage mask
    allows: every movement copy for every commodity, then every holdover
    arc for the commodities whose holdover_nodes contain its node. Its
    rows are one capacity row per movement copy and one balance equality
    per (commodity, node copy). It is built from the copies and the arc
    data alone, as a reference for feasibility_lp_from_expansion.
    """
    instance = expansion.instance
    arcs = instance.network.arc_by_id
    commodities = range(len(instance.commodities))
    # (commodity, tail copy, head copy, movement copy or None)
    columns = []
    for arc_id, theta in expansion.movement_copies:
        arc = arcs[arc_id]
        for i in commodities:
            head = (arc.head, theta + arc.transit)
            columns.append((i, (arc.tail, theta), head, (arc_id, theta)))
    for node, theta in expansion.holdover_arcs:
        for i in commodities:
            if node in expansion.holdover_nodes[i]:
                columns.append((i, (node, theta), (node, theta + 1), None))

    capacity = {copy: {} for copy in expansion.movement_copies}
    balance = {(i, copy): {} for i in commodities for copy in expansion.node_copies}
    for j, (i, tail, head, copy) in enumerate(columns):
        if copy is not None:
            capacity[copy][j] = ONE
        balance[i, tail][j] = -ONE
        balance[i, head][j] = ONE
    rhs = dict.fromkeys(balance, ZERO)
    for i, commodity in enumerate(instance.commodities):
        rhs[i, (commodity.source, 0)] -= commodity.demand
        rhs[i, (commodity.sink, expansion.horizon)] += commodity.demand

    rows = [
        Constraint(coeffs, "<=", arcs[arc_id].capacity)
        for (arc_id, _), coeffs in capacity.items()
    ]
    rows += [Constraint(coeffs, "=", rhs[key]) for key, coeffs in balance.items()]
    return LinearProgram(len(columns), tuple(rows))
