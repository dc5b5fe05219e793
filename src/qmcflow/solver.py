"""LP feasibility over exact rationals and minimum horizon search.

A probe decides whether an instance can be routed within an integer
horizon T. The time expansion turns that into a static linear
feasibility problem, and one path LP decides it in both storage modes.
A column is one commodity and one path in the expansion (see
qmcflow.expansion): it departs (s_i, theta), takes movement copies,
waits in between only where the commodity's storage mask allows it
(never without storage), never re-enters s_i and ends on its first
arrival at t_i. The rows are one capacity row per movement copy that
some column uses and one demand equality per commodity with positive
demand. By flow decomposition the LP is feasible exactly when the
node-arc LP of the expansion is: the expansion's variables, one
capacity row per movement copy and one flow conservation equality per
(commodity, node copy). Its columns are generated, not listed (Ford and
Fulkerson, Management Sci. 1958):

1. The first master holds each commodity's fewest-transit route over
   open arcs, shifted to every departure that fits.
2. lp_feasible decides the restricted master. A feasible master is a
   feasible probe: its path values become an assignment of the
   expansion's variables (assignment_from_paths), so every caller reads
   one kind of witness.
3. An infeasible master's final phase-one row gives exact duals: a
   capacity row's dual y_e is its slack's entry, and commodity i's
   demand dual y_i is the entry of any of its columns minus the sum of
   y_e along it, or the artificial's cost 1 if it has none.
4. Each commodity is priced by one shortest path under the lengths
   l_e = -y_e >= 0, waiting at no cost where the mask allows. A path
   with y_i - length > 0 enters, and the master is solved again from
   scratch.

When no path enters, the lengths prove the probe infeasible by the
Japanese theorem (Iri 1971; Onaga and Kakusho 1971): sum_i d_i *
dist_l(s_i, t_i) > sum_e c_e * l_e. That inequality is checked before
the verdict is returned, with distances from a label-correcting search
over the expansion's variables (ExpandedNetwork.column_endpoints,
holdovers at length 0) that shares no code with pricing, and a failure
raises RuntimeError. The certificate so proves the node-arc LP of the
probe infeasible, whatever the masters did.

Every LP is decided by a phase-one simplex in exact integer arithmetic
(integer numerators over per-row denominators): artificial variables
are attached to the equality rows and their sum is minimized; the
problem is feasible exactly when that minimum is zero. The objective is
one more tableau row: it is built from its cost row and updated at
every pivot by the same elimination routine as every other row, and an
infeasible verdict returns it. Artificials on zero right-hand sides
start at value zero and are pinned there (fixed variables: excluded
from the objective and from pricing, blocking the ratio test in either
direction), so the objective carries only the genuine residuals. A path
master has none, but general LPs do: the many zero balance rows of a
node-arc LP would otherwise drown phase one in degenerate bookkeeping
pivots. Pivoting is deterministic. The entering rule is largest reduced
cost with smallest-index tie break, switching to Bland's smallest-index
rule after a run of degenerate pivots; ties in the ratio test always go
to the smallest basic variable index. Bland's rule guarantees the
procedure cannot cycle, so it always terminates, and with exact
arithmetic every verdict is exact. lp_feasible checks a feasible
assignment row by row against its LP.

Least feasible integer horizons are found by probing, unless a
commodity with positive demand has no source-sink path over arcs of
positive capacity, which no horizon can fix. Probing starts at the
largest shortest transit time over arcs of positive capacity plus one
among commodities with positive demand, doubles until feasible, then
binary searches. No flow crosses an arc of capacity zero, and a
movement copy entered at theta arrives by T - 1, so a commodity needs
T >= its shortest open-arc transit + 1. The search is sound because
feasibility is monotone in the horizon (any schedule for T is also one
for T+1). Before a search returns its minimum, the witness of that
probe is turned into a flow over time and certified by the independent
checker (check_flow); the search returns that flow together with the
minimum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Mapping, Sequence

from .core import (
    FlowOverTime,
    Instance,
    Network,
    StorageMode,
    format_rational,
    transit_distances,
    validate_instance,
)
from .checker import check_flow
from .expansion import (
    ExpandedNetwork,
    Path,
    assignment_from_paths,
    build_time_expanded,
    cheapest_path,
    extract_flow_over_time,
    route_departures,
)
from .instances import cycle_instance

__all__ = [
    "Constraint",
    "LESS_EQUAL",
    "EQUAL",
    "LPResult",
    "LinearProgram",
    "NoHorizonFound",
    "SpeedupReport",
    "gap_csv",
    "gap_sweep",
    "lp_feasible",
    "min_feasible_horizon",
    "probe_horizon",
    "speedup_ratio",
]

LESS_EQUAL = "<="
EQUAL = "="

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Consecutive degenerate pivots tolerated before switching the entering
# rule to Bland's. Any cycle consists solely of degenerate pivots, so
# running Bland's rule from within such a run guarantees termination.
_BLAND_TRIGGER = 32


class NoHorizonFound(Exception):
    """No feasible horizon exists within the search bound."""


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
class LPResult:
    """A verdict, with the assignment that witnesses a feasible one.

    An infeasible verdict of lp_feasible carries phase_one_row, the
    final phase-one objective row as (numerators, denominator): entry j
    is pi.A_j - c_j for the phase-one duals pi, over columns 0..n-1 and
    then one slack per <= row in row order; zero entries are left out.
    Every entry is at most zero, since no column could enter.
    """

    feasible: bool
    assignment: tuple[Fraction, ...] | None = None
    phase_one_row: tuple[dict[int, int], int] | None = None


def lp_feasible(lp: LinearProgram) -> LPResult:
    """Decide feasibility exactly.

    A feasible verdict's assignment is checked row by row against the
    LP; a failed check raises RuntimeError.
    """
    result = _phase_one_exact(lp)
    if result.feasible and not lp.check_assignment(result.assignment):
        raise RuntimeError("simplex produced an assignment that violates the LP")
    return result


# Right-hand-side pseudo-column: stored inside each row dict so pivots
# update it with the same arithmetic as every other column. Real columns
# are nonnegative, so -1 never collides.
_RHS = -1


def _phase_one_exact(lp: LinearProgram) -> LPResult:
    """Exact phase-one simplex on an integer tableau.

    Each row is a dict of integer numerators over one positive integer
    denominator (dens[i]), reduced by their gcd after every update.
    Rows 0..m-1 are the constraints and rows[m] is the objective; one
    elimination routine (_eliminate) builds the objective and makes
    every pivot's row update. Fractions appear nowhere in the hot path:
    pivoting, pricing and ratio comparisons are all integer arithmetic,
    which for this kind of near-unimodular matrix is an order of
    magnitude faster than Fraction operations with their per-op
    normalization.
    """
    dens: list[int] = []
    n = lp.num_vars
    slack_count = sum(1 for c in lp.constraints if c.relation == LESS_EQUAL)
    art_start = n + slack_count

    rows: list[dict[int, int]] = []
    basis: list[int] = []
    pinned: set[int] = set()
    next_slack = n
    next_art = art_start
    for constraint in lp.constraints:
        den = lcm(
            constraint.rhs.denominator,
            *(v.denominator for v in constraint.coeffs.values()),
        )
        row = {j: v.numerator * (den // v.denominator) for j, v in constraint.coeffs.items() if v.numerator}
        b = constraint.rhs.numerator * (den // constraint.rhs.denominator)
        basic = None
        if constraint.relation == LESS_EQUAL:
            slack = next_slack
            next_slack += 1
            row[slack] = den
            if b >= 0:
                basic = slack
        if b < 0:
            row = {j: -v for j, v in row.items()}
            b = -b
            basic = None
        if b != 0:
            row[_RHS] = b
        if basic is None:
            art = next_art
            next_art += 1
            row[art] = den
            basic = art
            if b == 0:
                pinned.add(art)
        rows.append(row)
        dens.append(den)
        basis.append(basic)

    m = len(rows)

    # Phase-one objective: minimize the sum of the unpinned artificials.
    # rows[m] starts as their cost row, -1 in each of their columns, and
    # each is priced out by eliminating it with its own row (factor -den,
    # so that row is added). What remains are structural and slack
    # columns and the _RHS cell, which carries the objective value: zero
    # exactly when the LP is feasible.
    objective = {a: -1 for a in basis if a >= art_start and a not in pinned}
    rows.append(objective)
    dens.append(1)
    for i in range(m):
        factor = objective.get(basis[i])
        if factor is not None:
            dens[m] = _eliminate(objective, dens[m], factor, rows[i].items(), dens[i])

    bland = False
    degenerate_streak = 0

    while objective.get(_RHS, 0) > 0:
        entering = _entering_exact(objective, bland)
        if entering is None:
            row = {j: v for j, v in objective.items() if j != _RHS}
            return LPResult(False, None, (row, dens[m]))

        # Ratio test over pairs (rhs numerator, pivot numerator), both
        # over the same row denominator, compared by cross
        # multiplication. Rows whose basic variable is pinned block any
        # step at zero, whatever the sign of their pivot entry.
        pivot_row = None
        best_num = best_den = 0
        best_basic = -1
        for i in range(m):
            coeff = rows[i].get(entering)
            if coeff is None:
                continue
            if basis[i] in pinned:
                num, den = 0, 1
            elif coeff > 0:
                num, den = rows[i].get(_RHS, 0), coeff
            else:
                continue
            if pivot_row is None:
                pivot_row, best_num, best_den, best_basic = i, num, den, basis[i]
                continue
            left = num * best_den
            right = best_num * den
            if left < right or (left == right and basis[i] < best_basic):
                pivot_row, best_num, best_den, best_basic = i, num, den, basis[i]
        if pivot_row is None:
            # The objective is bounded below by zero, so an improving
            # column always has a blocking row; reaching this means the
            # tableau is corrupt.
            raise RuntimeError("phase-one ratio test found no pivot row")

        evicted_pinned = best_basic in pinned
        _pivot_exact(rows, dens, basis, pivot_row, entering, art_start)
        pinned.discard(best_basic)

        # Evicting a pinned artificial is permanent progress, not a
        # stall, so it does not count toward the Bland trigger.
        if best_num == 0:
            if not evicted_pinned:
                degenerate_streak += 1
                if degenerate_streak >= _BLAND_TRIGGER:
                    bland = True
        else:
            degenerate_streak = 0
            bland = False

    assignment = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            assignment[basis[i]] = Fraction(rows[i].get(_RHS, 0), dens[i])
    return LPResult(True, tuple(assignment))


def _entering_exact(objective: dict[int, int], bland: bool) -> int | None:
    """Largest positive objective numerator, smallest index on ties.
    Under Bland's rule every positive entry counts as a tie, so the
    smallest index wins. The _RHS cell is not a column."""
    best = None
    best_value = 0
    for j, v in objective.items():
        if v <= 0 or j == _RHS:
            continue
        if bland:
            v = 1
        if v > best_value or (v == best_value and j < best):
            best, best_value = j, v
    return best


def _reduce_row(row: dict[int, int], den: int) -> int:
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


def _eliminate(row: dict[int, int], den: int, factor: int, source, source_den: int) -> int:
    """Set row/den to row/den - (factor/den) * source/source_den in place
    and return the new denominator, reduced with the row by their gcd.
    source holds the (column, numerator) pairs of a row over source_den."""
    if source_den != 1:
        for j in row:
            row[j] *= source_den
    for j, v in source:
        updated = row.get(j, 0) - factor * v
        if updated:
            row[j] = updated
        else:
            row.pop(j, None)
    return _reduce_row(row, den * source_den)


def _pivot_exact(rows, dens, basis, r, entering, art_start) -> None:
    """Gaussian pivot on (r, entering) over every row, the objective
    included: row r is divided by its entering value and entering is
    eliminated from all other rows."""
    pivot_row = rows[r]
    pivot_num = pivot_row[entering]
    if pivot_num < 0:
        pivot_row = rows[r] = {j: -v for j, v in pivot_row.items()}
        pivot_num = -pivot_num
    # Row r over den becomes (num_j / den) / (pivot_num / den) =
    # num_j / pivot_num, so the entering cell equals the new denominator:
    # the new basic unit column.
    den_r = dens[r] = _reduce_row(pivot_row, pivot_num)
    pivot_items = tuple(pivot_row.items())
    for i, row in enumerate(rows):
        if i != r and (factor := row.get(entering)):
            dens[i] = _eliminate(row, dens[i], factor, pivot_items, den_r)

    leaving = basis[r]
    basis[r] = entering
    if leaving >= art_start:
        # A departed artificial never re-enters; drop its column so rows
        # stay sparse.
        for row in rows:
            row.pop(leaving, None)


def probe_horizon(
    instance: Instance,
    horizon: int,
    mode: StorageMode,
) -> tuple[ExpandedNetwork, LPResult]:
    """Build the expansion for one horizon and decide its feasibility on
    the path LP by column generation (see the module docstring). The
    mode reaches the decision only through the expansion's storage
    masks. A feasible assignment is in the expansion's canonical column
    order.
    """
    expansion = build_time_expanded(instance, horizon, mode)
    return expansion, _decide_by_paths(expansion)


def _decide_by_paths(expansion: ExpandedNetwork) -> LPResult:
    """Column generation over paths for one probe.

    The first master holds each commodity's fewest-transit route at
    every departure that fits. An infeasible master's phase-one row
    prices each commodity by one shortest path; a path with positive
    reduced cost enters and the master is solved again from scratch.
    When none enters, the lengths must pass the certificate check, or
    RuntimeError is raised.
    """
    commodities = expansion.instance.commodities
    demanded = [i for i, goods in enumerate(commodities) if goods.demand > 0]
    paths = [(i, path) for i in demanded for path in route_departures(expansion, i)]
    known = set(paths)
    while True:
        lp, copies = _path_master(expansion, paths, demanded)
        result = lp_feasible(lp)
        if result.feasible:
            return LPResult(True, assignment_from_paths(expansion, paths, result.assignment))
        lengths, duals = _master_duals(result, paths, copies, demanded)
        priced = []
        for i in demanded:
            cheapest = cheapest_path(expansion, i, lengths)
            if cheapest is not None and duals[i] > cheapest[0]:
                priced.append((i, cheapest[1]))
        if not priced:
            _check_length_certificate(expansion, lengths)
            return LPResult(False)
        if not known.isdisjoint(priced):
            # Every master column has reduced cost <= 0 at the end of
            # phase one, so pricing cannot pick one again.
            raise RuntimeError("pricing returned a column the master already has")
        known.update(priced)
        paths += priced


def _path_master(
    expansion: ExpandedNetwork, paths: list[tuple[int, Path]], demanded: list[int]
) -> tuple[LinearProgram, list[tuple[str, int]]]:
    """The restricted master over paths, and its capacity rows' copies.

    Column j is paths[j]. Rows: one capacity row per movement copy that
    some path uses, in sorted order, then one demand equality per
    commodity in demanded.
    """
    instance = expansion.instance
    capacity: dict[tuple[str, int], dict[int, Fraction]] = {}
    demand: dict[int, dict[int, Fraction]] = {i: {} for i in demanded}
    for j, (i, path) in enumerate(paths):
        demand[i][j] = _ONE
        for copy in path:
            capacity.setdefault(copy, {})[j] = _ONE
    copies = sorted(capacity)
    arc_by_id = instance.network.arc_by_id
    constraints = [
        Constraint(capacity[copy], LESS_EQUAL, arc_by_id[copy[0]].capacity) for copy in copies
    ]
    constraints += [
        Constraint(demand[i], EQUAL, instance.commodities[i].demand) for i in demanded
    ]
    return LinearProgram(len(paths), tuple(constraints)), copies


def _master_duals(
    result: LPResult,
    paths: list[tuple[int, Path]],
    copies: list[tuple[str, int]],
    demanded: list[int],
) -> tuple[dict[tuple[str, int], int], dict[int, int]]:
    """Lengths and demand duals of an infeasible master, read from its
    final phase-one row as integer numerators over the row's denominator.

    The length of copy e is -y_e, where y_e is the entry of its capacity
    row's slack; copies with length 0 are left out. The demand dual y_i
    is the entry of any of commodity i's columns plus the lengths along
    it, or the cost 1 of the row's artificial if i has no column.
    """
    row, den = result.phase_one_row
    n = len(paths)
    lengths = {}
    for r, copy in enumerate(copies):
        if value := -row.get(n + r, 0):
            lengths[copy] = value
    duals: dict[int, int] = {}
    for j, (i, path) in enumerate(paths):
        if i not in duals:
            duals[i] = row.get(j, 0) + sum([lengths.get(copy, 0) for copy in path])
    for i in demanded:
        duals.setdefault(i, den)
    return lengths, duals


def _check_length_certificate(
    expansion: ExpandedNetwork, lengths: Mapping[tuple[str, int], int]
) -> None:
    """Raise RuntimeError unless the lengths prove the probe infeasible.

    By the Japanese theorem (Iri 1971; Onaga and Kakusho 1971) the
    demands cannot be met if lengths l >= 0 on the movement copies give
    sum_i d_i * dist_l(i) > sum_e c_e * l_e, where dist_l(i) is the
    least length of a path from (s_i, 0) to (t_i, T) over commodity i's
    variables in the expansion (column_endpoints), holdovers at length
    0. A commodity with positive demand and no such path settles the
    inequality on its own. The distances come from a label-correcting
    search over those variables, which shares no code with pricing.
    """
    if any(value < 0 for value in lengths.values()):
        raise RuntimeError("the length certificate has a negative length")
    instance = expansion.instance
    arc_by_id = instance.network.arc_by_id
    budget = sum([arc_by_id[arc_id].capacity * value for (arc_id, _), value in lengths.items()])
    movement = expansion.movement_variables
    graph: dict[tuple[int, tuple[str, int]], list[tuple[tuple[str, int], int]]] = {}
    for j, (i, tail, head) in enumerate(expansion.column_endpoints()):
        length = lengths.get(movement[j][:2], 0) if j < len(movement) else 0
        graph.setdefault((i, tail), []).append((head, length))
    needed = _ZERO
    for i, goods in enumerate(instance.commodities):
        if goods.demand > 0:
            dist = _relaxed_distance(graph, i, (goods.source, 0), (goods.sink, expansion.horizon))
            if dist is None:
                return
            needed += goods.demand * dist
    if not needed > budget:
        raise RuntimeError(
            f"the length certificate at T={expansion.horizon} does not prove infeasibility"
            f" (demand-weighted distance {format_rational(needed)},"
            f" capacity-weighted length {format_rational(Fraction(budget))})"
        )


def _relaxed_distance(graph, commodity: int, start, target) -> int | None:
    """Least length from start to target in commodity's part of graph,
    by FIFO label correcting; None if target is unreachable."""
    dist = {start: 0}
    queue = deque([start])
    waiting = {start}
    while queue:
        copy = queue.popleft()
        waiting.discard(copy)
        here = dist[copy]
        for head, length in graph.get((commodity, copy), ()):
            candidate = here + length
            if candidate < dist.get(head, candidate + 1):
                dist[head] = candidate
                if head not in waiting:
                    waiting.add(head)
                    queue.append(head)
    return dist.get(target)


Observer = Callable[[int, ExpandedNetwork, LPResult], None]


def min_feasible_horizon(
    instance: Instance,
    mode: StorageMode,
    t_max: int,
    *,
    observer: Observer | None = None,
) -> tuple[int, FlowOverTime]:
    """Smallest integer horizon T <= t_max whose expansion is feasible,
    and the certified flow over time that meets it.

    Raises NoHorizonFound when even t_max is infeasible, and ValueError
    for invalid instances. The search never misses a smaller feasible
    horizon: probing starts at a proven lower bound, the largest
    shortest transit over arcs of positive capacity plus one among
    commodities with positive demand (only those arcs carry flow, and
    movement copies arrive by T - 1, so delivering anything needs a
    horizon beyond its path transit), doubles until feasible and binary
    searches the remaining bracket, whose lower end is never below that
    bound; all of this is justified by monotonicity of feasibility in T.
    Each horizon is probed at most once: the doubling probes increase
    strictly, and every binary-search midpoint lies in [lo, hi - 1],
    while every horizon probed before lies below lo or at or above hi.
    The optional observer receives every (horizon, expansion, result)
    probed. Each feasible probe is at a smaller horizon than the one
    before, so the last feasible result the observer receives is at the
    returned minimum.

    A commodity with positive demand and no source-sink path over arcs
    of positive capacity makes every horizon infeasible, so the search
    raises NoHorizonFound, naming it, before any probe. The test is
    exact: any such path carries the demand without waiting, in both
    modes, once the horizon is long enough.

    The minimum is certified before it is returned: the last feasible
    probe's assignment becomes a flow over time (extract_flow_over_time),
    and check_flow must accept it, or RuntimeError is raised. By
    monotonicity this certificate also vouches for every feasible
    verdict that shaped the search. The search returns the pair
    (minimum, flow), where flow is that certified schedule with horizon
    equal to the minimum.
    """
    report = validate_instance(instance)
    if not report.ok:
        raise ValueError(f"invalid instance: {report}")
    if t_max < 1:
        raise ValueError("t_max must be at least 1")

    network = instance.network
    # A tuple from a list, not a generator: see the note on tuples in
    # qmcflow.expansion.
    open_arcs = Network(network.nodes, tuple([arc for arc in network.arcs if arc.capacity > 0]))
    lower = 1
    for index, commodity in enumerate(instance.commodities):
        if commodity.demand > 0:
            transit = transit_distances(open_arcs, commodity.source).get(commodity.sink)
            if transit is None:
                raise NoHorizonFound(
                    f"commodity {index} has no path from {commodity.source!r} to "
                    f"{commodity.sink!r} over arcs of positive capacity, so no horizon "
                    f"is feasible in mode {mode.value}"
                )
            lower = max(lower, transit + 1)

    witness: list = []

    def feasible(horizon: int) -> bool:
        expansion, result = probe_horizon(instance, horizon, mode)
        if observer is not None:
            observer(horizon, expansion, result)
        if result.feasible:
            witness[:] = [expansion, result]
        return result.feasible

    probe = min(lower, t_max)
    last_infeasible = probe - 1
    while not feasible(probe):
        last_infeasible = probe
        if probe >= t_max:
            raise NoHorizonFound(
                f"no feasible horizon <= {t_max} in mode {mode.value} "
                f"(infeasible at T={t_max})"
            )
        probe = min(probe * 2, t_max)

    lo, hi = last_infeasible + 1, probe
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1

    expansion, result = witness
    flow = extract_flow_over_time(expansion, result.assignment)
    violations = check_flow(flow, instance, mode).violations
    if expansion.horizon != lo or violations:
        raise RuntimeError(
            f"the witness at T={expansion.horizon} does not certify the minimum {lo}"
            f" ({len(violations)} checker violation(s))"
        )
    return lo, flow


@dataclass(frozen=True)
class SpeedupReport:
    """Minimum horizons of both storage modes for one instance."""

    with_storage: int
    without_storage: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.without_storage, self.with_storage)


def speedup_ratio(
    instance: Instance,
    t_max: int,
    *,
    observer: Observer | None = None,
) -> SpeedupReport:
    """Minimum horizons with and without storage, and their ratio.

    Storage speeds things up by at most a factor of two, so the
    no-storage search never looks past 2 * minT_with; a violation of
    that bound would surface loudly as NoHorizonFound, never as a
    silently wrong minimum.
    """
    with_storage, _ = min_feasible_horizon(
        instance, StorageMode.WITH_STORAGE, t_max, observer=observer
    )
    without_storage, _ = min_feasible_horizon(
        instance,
        StorageMode.NO_INTERMEDIATE_STORAGE,
        min(t_max, 2 * with_storage),
        observer=observer,
    )
    return SpeedupReport(with_storage, without_storage)


def gap_sweep(
    k_min: int,
    k_max: int,
    *,
    t_max: int | None = None,
    observer: Observer | None = None,
) -> dict[int, SpeedupReport]:
    """Speed-up reports for the cycle family, keyed by k from k_min to k_max.

    Runs serially in order of k, searching each k up to t_max (4k by
    default); the observer sees every probe of every search. Requires
    3 <= k_min <= k_max.
    """
    if not 3 <= k_min <= k_max:
        raise ValueError("need 3 <= k_min <= k_max")
    return {
        k: speedup_ratio(
            cycle_instance(k), 4 * k if t_max is None else t_max, observer=observer
        )
        for k in range(k_min, k_max + 1)
    }


def gap_csv(reports: Mapping[int, SpeedupReport]) -> str:
    """Render sweep reports, keyed by k, as CSV in order of k; equal
    mappings give identical bytes."""
    lines = ["k,minT_with,minT_without,ratio"]
    for k, report in sorted(reports.items()):
        lines.append(
            f"{k},{report.with_storage},{report.without_storage},"
            f"{format_rational(report.ratio)}"
        )
    return "\n".join(lines) + "\n"
