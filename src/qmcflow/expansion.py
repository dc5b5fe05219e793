"""Discrete time expansion of an instance over an integer horizon.

This module is the only one that knows the time grid. The expansion has
one copy (v, theta) of every node for each integer time theta in 0..T,
and two kinds of arcs between copies:

* movement copies (a, theta) from (tail(a), theta) to (head(a), theta +
  transit(a)), one for each theta in 0..T-transit(a)-1, with the arc's
  capacity. A unit of flow on the copy stands for flow entering arc a
  during [theta, theta+1).
* holdover arcs (v, theta) -> (v, theta+1) for theta in 0..T-1, with
  unbounded capacity, usable by a commodity only where its storage mask
  allows: everywhere when storage is permitted, and only at the
  commodity's own source and sink otherwise. Holdover at the source
  encodes free departure timing for the supply placed at (source, 0);
  holdover at the sink collects arrivals until the demand is read off at
  (sink, T).

Not every (copy, commodity) pair is an LP variable. Besides the mask, a
commodity must be able to use the copy in time: it keeps a copy from
(u, theta) to (v, theta') only if u is reachable from its source by
theta and its sink is still reachable from v by T, starting at theta'
(dist(s_i, u) <= theta and theta' + dist(v, t_i) <= T, with dist the
smallest transit time). Dropping the cycles of a feasible static flow
keeps it feasible, and what is left uses only such copies, so this time
window leaves every verdict unchanged. ExpandedNetwork.column_endpoints
lists the tail and head copy of every variable, so the LP in the solver
sees the expansion as a plain static network and never computes a time
itself. In the other direction, extract_flow_over_time maps an LP
assignment, one value per variable in that same order, back to a
schedule: a flow over time whose rates are the movement values.

With a unit step and integer transit times the expansion is exact for
schedules whose rates are constant on unit intervals: balances of such
schedules are piecewise linear with integer breakpoints, so constraints
checked at the grid points hold everywhere in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .core import FlowOverTime, Instance, Piece, StepFunction, StorageMode, format_rational
from .core import transit_distances

__all__ = [
    "ExpandedNetwork",
    "build_time_expanded",
    "extract_flow_over_time",
]

# Tuples in this module are built from lists, not from generators.
# tuple() of a generator allocates 10 slots and resizes, so a short result
# is taken from one of CPython's per-size tuple free lists and freed into
# another. Only a full collection empties those lists, and over many small
# solves the imbalance raised peak memory by about 2 MB.


@dataclass(frozen=True)
class ExpandedNetwork:
    """The time expansion of an instance; see the module docstring.

    movement_copies and holdover_arcs are sorted lexicographically, and
    holdover_nodes[i] is the set of nodes where commodity i may use
    holdover arcs. movement_variables and holdover_variables are the LP
    variables in canonical order: the movement copies by (arc id, theta,
    commodity), then the holdover arcs by (node, theta, commodity), each
    pair kept only if the mask allows it and it lies in the commodity's
    time window. column_endpoints gives each variable's tail and head
    node copy in that order.
    """

    instance: Instance
    horizon: int
    mode: StorageMode
    movement_copies: tuple[tuple[str, int], ...]
    holdover_arcs: tuple[tuple[str, int], ...]
    holdover_nodes: tuple[frozenset[str], ...]
    movement_variables: tuple[tuple[str, int, int], ...]
    holdover_variables: tuple[tuple[str, int, int], ...]

    @cached_property
    def node_copies(self) -> tuple[tuple[str, int], ...]:
        return tuple([
            (node, theta)
            for node in self.instance.network.nodes
            for theta in range(self.horizon + 1)
        ])

    def column_endpoints(self) -> Iterator[tuple[int, tuple[str, int], tuple[str, int]]]:
        """(commodity, tail copy, head copy) of every variable, in the
        canonical order: movement_variables, then holdover_variables.

        Generated on demand rather than stored: each caller walks it
        once, and a stored tuple would keep two copies per variable
        alive with the expansion.
        """
        arc_by_id = self.instance.network.arc_by_id
        for arc_id, theta, commodity in self.movement_variables:
            arc = arc_by_id[arc_id]
            yield commodity, (arc.tail, theta), (arc.head, theta + arc.transit)
        for node, theta, commodity in self.holdover_variables:
            yield commodity, (node, theta), (node, theta + 1)

    def describe(self) -> str:
        """Debug dump of copies and masks. Not a stable format."""
        network = self.instance.network
        lines = [
            f"time expansion: T={self.horizon} mode={self.mode.value}",
            f"node copies: {len(network.nodes)} nodes x {self.horizon + 1} layers"
            f" = {len(self.node_copies)}",
            f"movement copies: {len(self.movement_copies)}",
        ]
        for arc_id, theta in self.movement_copies:
            arc = network.arc_by_id[arc_id]
            lines.append(
                f"  {arc_id}@{theta}: ({arc.tail},{theta}) -> ({arc.head},{theta + arc.transit})"
                f" cap {format_rational(arc.capacity)}"
            )
        lines.append(f"holdover arcs: {len(self.holdover_arcs)}")
        count = len(self.instance.commodities)
        for node, theta in self.holdover_arcs:
            allowed = ",".join(str(i) for i in range(count) if node in self.holdover_nodes[i])
            lines.append(f"  {node}@{theta} -> {node}@{theta + 1} commodities [{allowed}]")
        return "\n".join(lines) + "\n"


def build_time_expanded(instance: Instance, horizon: int, mode: StorageMode) -> ExpandedNetwork:
    """Construct the time expansion. The instance must be valid.

    Raises ValueError for a horizon that is not a positive integer, a
    mode that is not a StorageMode, and non-integer transit times;
    everything else is assumed validated. A horizon too short for any
    movement simply yields an expansion with no movement copies. The
    variables are the mask-allowed (copy, commodity) pairs inside the
    commodity's time window (see the module docstring).
    """
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise ValueError("horizon must be a positive integer")
    if not isinstance(mode, StorageMode):
        raise ValueError("mode must be a StorageMode")
    network = instance.network
    for arc in network.arcs:
        if isinstance(arc.transit, bool) or not isinstance(arc.transit, int) or arc.transit < 0:
            raise ValueError(f"arc {arc.id!r}: transit must be a nonnegative integer")

    movement = sorted(
        (arc.id, theta) for arc in network.arcs for theta in range(max(0, horizon - arc.transit))
    )
    holdover = sorted((node, theta) for node in network.nodes for theta in range(horizon))
    if mode is StorageMode.WITH_STORAGE:
        masks = tuple([frozenset(network.nodes) for _ in instance.commodities])
    else:
        masks = tuple([
            frozenset({commodity.source, commodity.sink}) for commodity in instance.commodities
        ])

    # The time window: smallest transits from each source and to each sink.
    windows = [
        (transit_distances(network, c.source), transit_distances(network, c.sink, reverse=True))
        for c in instance.commodities
    ]
    unreachable = horizon + 1

    def usable(i: int, tail: str, theta: int, head: str, arrival: int) -> bool:
        from_source, to_sink = windows[i]
        return (
            from_source.get(tail, unreachable) <= theta
            and arrival + to_sink.get(head, unreachable) <= horizon
        )

    commodities = range(len(instance.commodities))
    arcs = network.arc_by_id
    movement_variables = tuple([
        (a, theta, i)
        for a, theta in movement
        for i in commodities
        if usable(i, arcs[a].tail, theta, arcs[a].head, theta + arcs[a].transit)
    ])
    holdover_variables = tuple([
        (node, theta, i)
        for node, theta in holdover
        for i in commodities
        if node in masks[i] and usable(i, node, theta, node, theta + 1)
    ])
    return ExpandedNetwork(
        instance, horizon, mode, tuple(movement), tuple(holdover), masks,
        movement_variables, holdover_variables,
    )


def extract_flow_over_time(
    expansion: ExpandedNetwork, assignment: Sequence[Fraction]
) -> FlowOverTime:
    """Turn an LP assignment of the expansion into a flow over time.

    The assignment lists one value per variable in the canonical column
    order: movement_variables, then holdover_variables. A nonzero value
    x of movement variable (a, theta, i) becomes rate x of commodity i
    on arc a during [theta, theta+1). Holdover values are node storage
    and produce no arc rates. A length other than the column count
    raises ValueError, and so does a negative value (StepFunction
    rejects it).
    """
    movement = expansion.movement_variables
    columns = len(movement) + len(expansion.holdover_variables)
    if len(assignment) != columns:
        raise ValueError(f"expected {columns} values, got {len(assignment)}")
    grouped: dict[tuple[str, int], list[Piece]] = {}
    for (arc_id, theta, commodity), value in zip(movement, assignment):
        if value:
            grouped.setdefault((arc_id, commodity), []).append(
                Piece(Fraction(theta), Fraction(theta + 1), value)
            )
    horizon = Fraction(expansion.horizon)
    rates = {
        key: StepFunction(horizon, tuple(pieces)) for key, pieces in sorted(grouped.items())
    }
    return FlowOverTime(horizon, rates)
