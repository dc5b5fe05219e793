"""Shared test utilities: flow truncation, exact integration of rate
functions, in-arcs and the transit Dijkstra search (the reference for
the package's fewest_transit_route), flow-to-LP transcription, the
unreduced node-arc LP, the label-correcting reference distance that the
solver's backward pass over the time grid is checked against, the cold
path master, the cycles that separate the two storage modes, the
reference simplex for general LPs, Fourier-Motzkin elimination as a
reference for it, the per-breakpoint reference flow checker, the
json.dumps(doc, indent=2) document writers that the package's direct
writers must match byte for byte, and instances with exactly one
defect.

The package lists no node-arc variable: the (copy, commodity) columns
and their endpoints live here, as test references.

The reference simplex (lp_feasible) decides the node-arc and cold master
LPs that the package's warm path masters are checked against, so it
imports nothing from qmcflow.solver: a fault in the package's simplex
cannot then hide on both sides of a differential test."""

from __future__ import annotations

import json
from collections import deque
from heapq import heappop, heappush
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Sequence

import pytest

from qmcflow.checker import (
    CAPACITY,
    CONSERVATION,
    DEMAND,
    STRICT_CONSERVATION,
    Violation,
)
from qmcflow.core import (
    Arc,
    Commodity,
    Defect,
    FlowOverTime,
    Instance,
    Network,
    Piece,
    StepFunction,
    StorageMode,
    format_rational,
)
from qmcflow.expansion import ExpandedNetwork, Path
from qmcflow.instances import CycleParams

ZERO = Fraction(0)
ONE = Fraction(1)

# Cycles whose commodity 0 has a demand d0 other than 2, with their
# minima (with storage, without storage). The small random instances
# never separate the modes; these do, and d0 = 3 moves the with-storage
# minimum off k + 1.
SEPARATING_CYCLES = {
    CycleParams(3, Fraction(3, 2)): (4, 5),
    CycleParams(4, Fraction(3, 2)): (5, 7),
    CycleParams(4, Fraction(3)): (6, 7),
}


# Each case adds one defect to the valid two-node instance v0 -> v1
# (one_defect_instance): nodes replace its nodes, arcs join its arc a0
# and commodity replaces its commodity. defect is what validate_instance
# must report, alone.
ONE_DEFECT_CASES = [
    pytest.param(
        ("v0", "v1", "v0"),
        (),
        None,
        Defect("duplicate node id", "v0", "node listed more than once"),
        id="duplicate-node",
    ),
    pytest.param(
        None,
        (Arc("a1", "v0", "v9", ONE, 1),),
        None,
        Defect("unknown arc endpoint", "a1", "node 'v9' is not in the network"),
        id="unknown-arc-endpoint",
    ),
    pytest.param(
        None,
        (Arc("a1", "v1", "v1", ONE, 1),),
        None,
        Defect("self-loop", "a1", "tail and head are both 'v1'"),
        id="self-loop",
    ),
    pytest.param(
        None,
        (Arc("a1", "v0", "v1", ONE, Fraction(1, 2)),),
        None,
        Defect("non-integer transit", "a1", "transit Fraction(1, 2) is not an integer"),
        id="fractional-transit",
    ),
    pytest.param(
        None,
        (Arc("a1", "v0", "v1", ONE, True),),
        None,
        Defect("non-integer transit", "a1", "transit True is not an integer"),
        id="bool-transit",
    ),
    pytest.param(
        None,
        (Arc("a1", "v0", "v1", ONE, -1),),
        None,
        Defect("negative transit", "a1", "transit -1 is negative"),
        id="negative-transit",
    ),
    pytest.param(
        None,
        (),
        Commodity("v0", "v9", ONE),
        Defect("unknown commodity endpoint", "commodity 0", "node 'v9' is not in the network"),
        id="unknown-commodity-endpoint",
    ),
    pytest.param(
        None,
        (),
        Commodity("v0", "v1", -ONE),
        Defect("negative demand", "commodity 0", "demand -1 is negative"),
        id="negative-demand",
    ),
]


def one_defect_instance(
    nodes: tuple[str, ...] | None, arcs: tuple[Arc, ...], commodity: Commodity | None
) -> Instance:
    network = Network(nodes or ("v0", "v1"), (Arc("a0", "v0", "v1", ONE, 1),) + arcs)
    return Instance(network, (commodity or Commodity("v0", "v1", ONE),))


LESS_EQUAL = "<="
EQUAL = "="


@dataclass(frozen=True)
class Constraint:
    """Sparse row: sum of coeffs[j] * x_j compared against rhs."""

    coeffs: Mapping[int, Fraction]
    relation: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.relation not in (LESS_EQUAL, EQUAL):
            raise ValueError(f"relation must be {LESS_EQUAL!r} or {EQUAL!r}")


@dataclass(frozen=True)
class LinearProgram:
    """Feasibility problem: find x >= 0 satisfying all constraints.

    Rows are stored sparsely; every coefficient index must be smaller
    than num_vars.
    """

    num_vars: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        for row, constraint in enumerate(self.constraints):
            for index in constraint.coeffs:
                if not 0 <= index < self.num_vars:
                    raise ValueError(f"constraint {row}: variable index {index} out of range")

    def check_assignment(self, assignment: Sequence) -> bool:
        """Exact row-by-row verification of an assignment. Zero values
        are skipped; they contribute nothing to a row."""
        if len(assignment) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} values, got {len(assignment)}")
        if any(value < 0 for value in assignment):
            return False
        for constraint in self.constraints:
            total = sum(
                coeff * assignment[j] for j, coeff in constraint.coeffs.items() if assignment[j]
            )
            if constraint.relation == EQUAL:
                if total != constraint.rhs:
                    return False
            elif total > constraint.rhs:
                return False
        return True


@dataclass(frozen=True)
class Verdict:
    """The reference's verdict, with the assignment that witnesses a
    feasible one."""

    feasible: bool
    assignment: tuple[Fraction, ...] | None = None


def lp_feasible(lp: LinearProgram) -> Verdict:
    """Decide feasibility exactly by the reference simplex.

    A feasible verdict's assignment is checked row by row against the
    LP; a failed check raises RuntimeError.
    """
    result = _phase_one_exact(lp)
    if result.feasible and not lp.check_assignment(result.assignment):
        raise RuntimeError("simplex produced an assignment that violates the LP")
    return result


# The reference simplex: phase one on a sparse tableau of integer
# numerators over per-row denominators. Column numbers: structural
# columns 0..n-1, the slack of row r _SLACK + r and its artificial
# _ART + r, so slacks rank above structural columns and artificials
# last. _RHS is the right-hand side, kept in each row dict.
_RHS = -1
_SLACK = 1 << 40
_ART = 1 << 41

# Consecutive degenerate pivots tolerated before the entering rule
# switches to Bland's, which cannot cycle.
_BLAND_TRIGGER = 32


def _phase_one_exact(lp: LinearProgram) -> Verdict:
    """Phase one over all rows of lp at once; a feasible verdict carries
    the basic values.

    A row with rhs >= 0 and a slack starts with its slack basic; any
    other row is negated if its rhs is negative and gets an artificial.
    An artificial on a zero rhs starts at zero and is pinned there: it is
    left out of the objective and blocks the ratio test at a step of zero
    whatever the sign of its pivot entry, so the many zero balance rows
    of a node-arc LP cost no degenerate bookkeeping pivots. The other
    artificials' sum is minimized; the LP is feasible exactly when it
    reaches zero.
    """
    rows: list[dict[int, int]] = []
    dens: list[int] = []
    basis: list[int] = []
    pinned: set[int] = set()
    for r, constraint in enumerate(lp.constraints):
        den = lcm(constraint.rhs.denominator, *(v.denominator for v in constraint.coeffs.values()))
        row = {j: v.numerator * (den // v.denominator) for j, v in constraint.coeffs.items() if v}
        b = constraint.rhs.numerator * (den // constraint.rhs.denominator)
        if constraint.relation == LESS_EQUAL:
            row[_SLACK + r] = den
        if b < 0 or constraint.relation == EQUAL:
            if b < 0:
                row = {j: -v for j, v in row.items()}
                b = -b
            basic = _ART + r
            row[basic] = den
            if not b:
                pinned.add(basic)
        else:
            basic = _SLACK + r
        if b:
            row[_RHS] = b
        rows.append(row)
        dens.append(den)
        basis.append(basic)

    rows_of: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        for j in row:
            if j != _RHS:
                rows_of.setdefault(j, set()).add(r)
    # The objective: minus the sum of the unpinned artificials, each
    # priced out by adding its row.
    objective: dict[int, int] = {}
    objective_den = 1
    for r, basic in enumerate(basis):
        if basic >= _ART and basic not in pinned:
            objective[basic] = -objective_den
            objective_den = _eliminate(objective, objective_den, -objective_den, rows[r], dens[r])

    bland = False
    degenerate_streak = 0
    while objective.get(_RHS, 0) > 0:
        candidates = [j for j, v in objective.items() if v > 0 and j != _RHS]
        if not candidates:
            return Verdict(False)
        if bland:
            entering = min(candidates)
        else:
            entering = min(candidates, key=lambda j: (-objective[j], j))

        # Ratio test by cross multiplication; ties go to the smallest
        # basic column. A pinned row blocks at zero.
        pivot_row = None
        best_num = best_den = 0
        for i in rows_of[entering]:
            coeff = rows[i].get(entering, 0)
            if basis[i] in pinned and coeff:
                num, den = 0, 1
            elif coeff > 0:
                num, den = rows[i].get(_RHS, 0), coeff
            else:
                continue
            if pivot_row is not None:
                left, right = num * best_den, best_num * den
                if left > right or (left == right and basis[i] > basis[pivot_row]):
                    continue
            pivot_row, best_num, best_den = i, num, den
        if pivot_row is None:
            raise RuntimeError("reference ratio test found no pivot row")

        leaving = basis[pivot_row]
        # Evicting a pinned artificial is progress, not a stall.
        if best_num == 0 and leaving not in pinned:
            degenerate_streak += 1
            bland = bland or degenerate_streak >= _BLAND_TRIGGER
        elif best_num:
            degenerate_streak, bland = 0, False
        pinned.discard(leaving)

        # The pivot: row r over its entering entry, then entering
        # eliminated from every other row where it is nonzero and from
        # the objective.
        pivot = rows[pivot_row]
        pivot_num = pivot[entering]
        if pivot_num < 0:
            pivot = rows[pivot_row] = {j: -v for j, v in pivot.items()}
            pivot_num = -pivot_num
        dens[pivot_row] = _reduce_row(pivot, pivot_num)
        touched = rows_of[entering] - {pivot_row}
        for i in touched:
            if factor := rows[i].get(entering):
                dens[i] = _eliminate(rows[i], dens[i], factor, pivot, dens[pivot_row])
        if factor := objective.get(entering):
            objective_den = _eliminate(objective, objective_den, factor, pivot, dens[pivot_row])
        for j in pivot:
            if j != _RHS:
                rows_of[j] |= touched
        rows_of[entering] = {pivot_row}
        basis[pivot_row] = entering
        if leaving >= _ART:
            # A departed artificial never re-enters.
            for i in rows_of.pop(leaving):
                rows[i].pop(leaving, None)
            objective.pop(leaving, None)

    values = [ZERO] * lp.num_vars
    for r, basic in enumerate(basis):
        if basic < _SLACK:
            values[basic] = Fraction(rows[r].get(_RHS, 0), dens[r])
    return Verdict(True, tuple(values))


def _reduce_row(row: dict[int, int], den: int) -> int:
    """Divide the row's numerators and den by their gcd; return the new
    den."""
    g = den
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return den
    if g > 1:
        for j in row:
            row[j] //= g
        den //= g
    return den


def _eliminate(
    row: dict[int, int], den: int, factor: int, source: dict[int, int], source_den: int
) -> int:
    """Set row/den to row/den - (factor/den) * source/source_den in place
    and return the reduced denominator."""
    if source_den != 1:
        for j in row:
            row[j] *= source_den
    for j, v in source.items():
        updated = row.get(j, 0) - factor * v
        if updated:
            row[j] = updated
        else:
            row.pop(j, None)
    return _reduce_row(row, den * source_den)


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


def cumulative(rate: StepFunction, theta: int | Fraction) -> Fraction:
    """Integral of the rate over [0, min(theta, domain end)], exactly.

    theta beyond the domain end evaluates the full integral; a negative
    theta raises ValueError. It integrates every piece from 0, as the
    reference checker's integrator.
    """
    theta = Fraction(theta)
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    total = ZERO
    for piece in rate.pieces:
        upper = theta if theta < piece.end else piece.end
        if upper > piece.start:
            total += piece.rate * (upper - piece.start)
    return total


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


def in_arcs(network: Network) -> dict[str, tuple[Arc, ...]]:
    """The arcs into each node, in the order of network.arcs: the mirror
    of Network.out_arcs, which the package needs no copy of."""
    table: dict[str, list[Arc]] = {node: [] for node in network.nodes}
    for arc in network.arcs:
        table.setdefault(arc.head, []).append(arc)
        table.setdefault(arc.tail, [])
    return {node: tuple(arcs) for node, arcs in table.items()}


def transit_distances(network: Network, origin: str) -> dict[str, int]:
    """Smallest total transit time from origin to every reachable node,
    over every arc whatever its capacity.

    Unreachable nodes are absent; origin maps to 0. Transit times are
    nonnegative integers, so this is a plain Dijkstra search. An unknown
    origin raises ValueError. The reference for the package's
    fewest_transit_route.
    """
    if origin not in network.node_set:
        raise ValueError(f"unknown node: {origin!r}")
    best: dict[str, int] = {origin: 0}
    heap: list[tuple[int, str]] = [(0, origin)]
    while heap:
        dist, node = heappop(heap)
        if dist > best[node]:
            continue
        for arc in network.out_arcs.get(node, ()):
            candidate = dist + arc.transit
            if candidate < best.get(arc.head, candidate + 1):
                best[arc.head] = candidate
                heappush(heap, (candidate, arc.head))
    return best


def assignment_from_flow(expansion: ExpandedNetwork, flow: FlowOverTime) -> list[Fraction]:
    """Transcribe a unit-interval-constant flow into values of
    unreduced_lp's columns, in the order of unreduced_columns.

    Movement variables take the amount entering the arc during
    [theta, theta+1). Holdover variables take the amount of the
    commodity parked at the node during that interval, where supply not
    yet injected counts as parked at the source. A feasible schedule
    satisfies every row of unreduced_lp.
    """
    instance = expansion.instance
    network = instance.network
    into = in_arcs(network)
    values: list[Fraction] = []
    for kind, name, theta, commodity in unreduced_columns(expansion):
        if kind == "move":
            step = flow.rates.get((name, commodity))
            values.append(
                ZERO if step is None else cumulative(step, theta + 1) - cumulative(step, theta)
            )
            continue
        com = instance.commodities[commodity]
        held = ZERO
        for arc in into[name]:
            held += _delivered(flow, arc.id, commodity, arc.transit, theta + 1)
        for arc in network.out_arcs[name]:
            held -= _departed(flow, arc.id, commodity, theta + 1)
        if name == com.source:
            held += com.demand
        values.append(held)
    return values


def unreduced_columns(expansion: ExpandedNetwork) -> list[tuple]:
    """Keys of unreduced_lp's columns, in its order: ("move", arc id,
    theta, commodity) for every movement copy and every commodity, then
    ("hold", node, theta, commodity) for every holdover arc and every
    commodity that may hold over at its node: all of them with storage,
    and without it those whose source or sink the node is."""
    commodities = expansion.instance.commodities
    storage = expansion.mode is StorageMode.WITH_STORAGE
    return [
        ("move", arc_id, theta, i)
        for arc_id, theta in expansion.movement_copies
        for i in range(len(commodities))
    ] + [
        ("hold", node, theta, i)
        for node, theta in expansion.holdover_arcs
        for i, goods in enumerate(commodities)
        if storage or node in (goods.source, goods.sink)
    ]


def column_endpoints(expansion: ExpandedNetwork, columns: Sequence[tuple]) -> Iterator[tuple]:
    """(commodity, tail copy, head copy, movement copy) of each column key
    in unreduced_columns' format; the movement copy (arc id, theta) is
    None for a holdover."""
    arcs = expansion.instance.network.arc_by_id
    for kind, name, theta, i in columns:
        if kind == "move":
            arc = arcs[name]
            yield i, (arc.tail, theta), (arc.head, theta + arc.transit), (name, theta)
        else:
            yield i, (name, theta), (name, theta + 1), None


def reference_distance(
    expansion: ExpandedNetwork, lengths: Mapping[tuple[str, int], int], commodity: int
) -> int | None:
    """Least length from (s_i, 0) to (t_i, T) over commodity i's columns
    of unreduced_lp, a movement column of length lengths.get(copy, 0) and
    a holdover of length 0; None if (t_i, T) is unreachable. Computed by
    FIFO label correcting over a graph built from the columns, as the
    reference for the solver's backward pass over the time grid."""
    graph: dict[tuple[str, int], list[tuple[tuple[str, int], int]]] = {}
    for i, tail, head, copy in column_endpoints(expansion, unreduced_columns(expansion)):
        if i == commodity:
            length = 0 if copy is None else lengths.get(copy, 0)
            graph.setdefault(tail, []).append((head, length))
    goods = expansion.instance.commodities[commodity]
    start = (goods.source, 0)
    dist = {start: 0}
    queue = deque([start])
    waiting = {start}
    while queue:
        copy = queue.popleft()
        waiting.discard(copy)
        here = dist[copy]
        for head, length in graph.get(copy, ()):
            candidate = here + length
            if candidate < dist.get(head, candidate + 1):
                dist[head] = candidate
                if head not in waiting:
                    waiting.add(head)
                    queue.append(head)
    return dist.get((goods.sink, expansion.horizon))


def unreduced_lp(expansion: ExpandedNetwork) -> LinearProgram:
    """The time-expanded node-arc LP, with no column or row dropped.

    Its variables are all (copy, commodity) pairs the storage mode
    allows, in the order of unreduced_columns. Its rows are one capacity
    row per movement copy and one balance equality per (commodity, node
    copy), with the supply entering at (source, 0) and the demand leaving
    at (sink, T). It is built from the copies and the arc data alone, as
    the reference for probe_horizon's verdicts in both modes.
    """
    instance = expansion.instance
    arcs = instance.network.arc_by_id
    horizon = expansion.horizon
    node_copies = [(node, theta) for node in instance.network.nodes for theta in range(horizon + 1)]
    columns = unreduced_columns(expansion)
    capacity = {copy: {} for copy in expansion.movement_copies}
    balance = {
        (i, copy): {} for i in range(len(instance.commodities)) for copy in node_copies
    }
    for j, (i, tail, head, copy) in enumerate(column_endpoints(expansion, columns)):
        if copy is not None:
            capacity[copy][j] = ONE
        balance[i, tail][j] = -ONE
        balance[i, head][j] = ONE
    rhs = dict.fromkeys(balance, ZERO)
    for i, commodity in enumerate(instance.commodities):
        rhs[i, (commodity.source, 0)] -= commodity.demand
        rhs[i, (commodity.sink, horizon)] += commodity.demand

    rows = [
        Constraint(coeffs, "<=", arcs[arc_id].capacity)
        for (arc_id, _), coeffs in capacity.items()
    ]
    rows += [Constraint(coeffs, "=", rhs[key]) for key, coeffs in balance.items()]
    return LinearProgram(len(columns), tuple(rows))


def satisfies_unreduced_lp(expansion: ExpandedNetwork, assignment) -> bool:
    """Whether an assignment of unreduced_lp's columns, in the order of
    unreduced_columns, satisfies every row of it."""
    return unreduced_lp(expansion).check_assignment(assignment)


def flow_satisfies_unreduced_lp(expansion: ExpandedNetwork, flow: FlowOverTime) -> bool:
    """Whether a flow over time, transcribed by assignment_from_flow,
    satisfies every row of unreduced_lp."""
    return satisfies_unreduced_lp(expansion, assignment_from_flow(expansion, flow))


def path_master_lp(
    expansion: ExpandedNetwork, paths: list[tuple[int, Path]]
) -> tuple[LinearProgram, list[tuple[str, int]]]:
    """The restricted master over paths as a LinearProgram of its own,
    built from scratch, and its capacity rows' copies.

    Column j is paths[j]. Rows: one capacity row per movement copy that
    some path uses, in sorted order, then one demand equality per
    commodity with positive demand. It shares no code with the solver's
    warm tableau, as the cold reference for its verdicts.
    """
    instance = expansion.instance
    demanded = [i for i, goods in enumerate(instance.commodities) if goods.demand > 0]
    capacity: dict[tuple[str, int], dict[int, Fraction]] = {}
    demand: dict[int, dict[int, Fraction]] = {i: {} for i in demanded}
    for j, (i, path) in enumerate(paths):
        demand[i][j] = ONE
        for copy in path:
            capacity.setdefault(copy, {})[j] = ONE
    copies = sorted(capacity)
    arc_by_id = instance.network.arc_by_id
    constraints = [Constraint(capacity[copy], "<=", arc_by_id[copy[0]].capacity) for copy in copies]
    constraints += [Constraint(demand[i], "=", instance.commodities[i].demand) for i in demanded]
    return LinearProgram(len(paths), tuple(constraints)), copies


def _holds(equality: bool, rhs: Fraction) -> bool:
    """Whether a row with no variable left, 0 = rhs or 0 <= rhs, holds."""
    return rhs == 0 if equality else rhs >= 0


def fourier_motzkin_feasible(lp: LinearProgram) -> bool:
    """Whether some x >= 0 satisfies every row of lp, decided by exact
    Fourier-Motzkin elimination over Fractions.

    Rows a.x = b and a.x <= b, including -x_j <= 0 for every variable,
    are eliminated one variable at a time: with an equality that holds
    the variable, by substituting it into every other row; otherwise by
    adding each row where its coefficient is positive to each row where
    it is negative, both scaled to cancel it. A row left with no
    variable must hold on its own. Rows are scaled so that their first
    nonzero coefficient is +1 or -1, and kept in a set, which drops
    duplicates. It shares no code with either simplex, as a reference for
    lp_feasible's verdicts.
    """
    n = lp.num_vars
    rows = [
        (tuple(Fraction(c.coeffs.get(j, 0)) for j in range(n)), c.relation == "=", Fraction(c.rhs))
        for c in lp.constraints
    ]
    rows += [(tuple(-ONE if i == j else ZERO for i in range(n)), False, ZERO) for j in range(n)]

    for k in range(n):
        scaled = set()
        for coeffs, equality, rhs in rows:
            lead = next((abs(c) for c in coeffs if c), None)
            if lead is not None:
                scaled.add((tuple(c / lead for c in coeffs), equality, rhs / lead))
            elif not _holds(equality, rhs):
                return False
        pivot = next((row for row in scaled if row[1] and row[0][k]), None)
        if pivot is not None:
            a, _, b = pivot
            rows = []
            for coeffs, equality, rhs in scaled - {pivot}:
                factor = coeffs[k] / a[k]
                rows.append(
                    (tuple(c - factor * a_i for c, a_i in zip(coeffs, a)), equality, rhs - factor * b)
                )
        else:
            upper = [row for row in scaled if row[0][k] > 0]
            lower = [row for row in scaled if row[0][k] < 0]
            rows = [row for row in scaled if not row[0][k]]
            for p, _, p_rhs in upper:
                for q, _, q_rhs in lower:
                    # Both multipliers are positive, so the sum is still
                    # a valid <= row, and x_k cancels.
                    u, v = 1 / p[k], -1 / q[k]
                    rows.append(
                        (tuple(u * x + v * y for x, y in zip(p, q)), False, u * p_rhs + v * q_rhs)
                    )
    return all(_holds(equality, rhs) for _, equality, rhs in rows)


def _reference_capacity(flow: FlowOverTime, instance: Instance) -> list[Violation]:
    """Capacity: re-sum every piece on each elementary interval."""
    violations: list[Violation] = []
    commodity_count = len(instance.commodities)
    for arc in instance.network.arcs:
        steps = [
            step
            for i in range(commodity_count)
            if (step := flow.rates.get((arc.id, i))) is not None
        ]
        points = sorted(
            {point for step in steps for piece in step.pieces for point in (piece.start, piece.end)}
        )
        if not points:
            continue
        merged: list[tuple[Fraction, Fraction, Fraction]] = []
        for lo, hi in zip(points, points[1:]):
            total = ZERO
            for step in steps:
                for piece in step.pieces:
                    if piece.start <= lo and hi <= piece.end:
                        total += piece.rate
            if merged and merged[-1][1] == lo and merged[-1][2] == total:
                merged[-1] = (merged[-1][0], hi, total)
            else:
                merged.append((lo, hi, total))
        for lo, hi, total in merged:
            if total > arc.capacity:
                violations.append(
                    Violation(CAPACITY, arc.id, None, lo, hi, total - arc.capacity)
                )
    return violations


def _reference_balance(
    flow: FlowOverTime,
    instance: Instance,
    into: Mapping[str, tuple[Arc, ...]],
    commodity: int,
    node: str,
    theta: Fraction,
) -> Fraction:
    """Cumulative balance at theta, integrating every piece from 0; into
    is in_arcs(instance.network)."""
    total = ZERO
    for arc in into[node]:
        step = flow.rates.get((arc.id, commodity))
        if step is not None and theta > arc.transit:
            total += cumulative(step, theta - arc.transit)
    for arc in instance.network.out_arcs[node]:
        step = flow.rates.get((arc.id, commodity))
        if step is not None:
            total -= cumulative(step, theta)
    return total


def _reference_conservation(
    flow: FlowOverTime, instance: Instance, mode: StorageMode
) -> list[Violation]:
    """Conservation: evaluate the balance afresh at every breakpoint."""
    violations: list[Violation] = []
    horizon = flow.horizon
    strict = mode is StorageMode.NO_INTERMEDIATE_STORAGE
    into = in_arcs(instance.network)
    for index, commodity in enumerate(instance.commodities):
        for node in instance.network.nodes:
            if node == commodity.source:
                continue
            points: set[Fraction] = {horizon}
            relevant = False
            for arc in into[node]:
                step = flow.rates.get((arc.id, index))
                if step is not None:
                    relevant = True
                    for piece in step.pieces:
                        points.add(piece.start + arc.transit)
                        points.add(piece.end + arc.transit)
            for arc in instance.network.out_arcs[node]:
                step = flow.rates.get((arc.id, index))
                if step is not None:
                    relevant = True
                    for piece in step.pieces:
                        points.add(piece.start)
                        points.add(piece.end)
            if not relevant:
                continue
            for theta in sorted(p for p in points if 0 < p <= horizon):
                balance = _reference_balance(flow, instance, into, index, node, theta)
                if balance < 0:
                    violations.append(
                        Violation(CONSERVATION, node, index, theta, theta, -balance)
                    )
                elif strict and balance > 0 and node != commodity.sink:
                    violations.append(
                        Violation(STRICT_CONSERVATION, node, index, theta, theta, balance)
                    )
    return violations


def _reference_demands(flow: FlowOverTime, instance: Instance) -> list[Violation]:
    """Demands: the balance at the horizon, integrating every piece from 0."""
    violations: list[Violation] = []
    horizon = flow.horizon
    into = in_arcs(instance.network)
    for index, commodity in enumerate(instance.commodities):
        for node in instance.network.nodes:
            if node == commodity.sink:
                expected = commodity.demand
            elif node == commodity.source:
                expected = -commodity.demand
            else:
                expected = ZERO
            touched = any(
                (arc.id, index) in flow.rates
                for arc in into[node] + instance.network.out_arcs[node]
            )
            if not touched and expected == 0:
                continue
            balance = _reference_balance(flow, instance, into, index, node, horizon)
            if balance != expected:
                violations.append(
                    Violation(DEMAND, node, index, horizon, horizon, abs(balance - expected))
                )
    return violations


def reference_check_flow(
    flow: FlowOverTime, instance: Instance, mode: StorageMode
) -> tuple[Violation, ...]:
    """The flow checker's violations, computed the slow way.

    Capacity re-sums every piece on each elementary interval, and
    conservation and demands integrate every piece from 0 with cumulative
    at each breakpoint. It shares only Violation and the kind constants
    with qmcflow.checker, as a reference for its breakpoint sweep.
    """
    return tuple(
        _reference_capacity(flow, instance)
        + _reference_conservation(flow, instance, mode)
        + _reference_demands(flow, instance)
    )


def reference_serialize_instance(instance: Instance) -> str:
    """The instance document as json.dumps(doc, indent=2) writes it."""
    doc = {
        "nodes": list(instance.network.nodes),
        "arcs": [
            {
                "id": arc.id,
                "tail": arc.tail,
                "head": arc.head,
                "capacity": format_rational(arc.capacity),
                "transit": arc.transit,
            }
            for arc in instance.network.arcs
        ],
        "commodities": [
            {
                "source": commodity.source,
                "sink": commodity.sink,
                "demand": format_rational(commodity.demand),
            }
            for commodity in instance.commodities
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_serialize_flow(flow: FlowOverTime) -> str:
    """The flow document as json.dumps(doc, indent=2) writes it."""
    doc = {
        "horizon": format_rational(flow.horizon),
        "rates": [
            {
                "arc": arc_id,
                "commodity": commodity,
                "pieces": [
                    {
                        "from": format_rational(piece.start),
                        "to": format_rational(piece.end),
                        "rate": format_rational(piece.rate),
                    }
                    for piece in flow.rates[arc_id, commodity].pieces
                ],
            }
            for arc_id, commodity in sorted(flow.rates)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
