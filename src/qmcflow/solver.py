"""LP feasibility over exact rationals and minimum horizon search.

A probe decides whether an instance can be routed within an integer
horizon T. The time expansion turns that into a static linear
feasibility problem, and one path LP decides it in both storage modes.
A column is one commodity and one path in the expansion (see
qmcflow.expansion): it departs (s_i, theta), takes movement copies,
waits in between only where the storage mode allows it (never without
storage), never re-enters s_i and ends on its first arrival at t_i.
The rows are one capacity row per movement copy that some column uses
and one demand equality per commodity with positive demand. By flow
decomposition the LP is feasible exactly when the node-arc LP of the
expansion is: one variable per movement copy and commodity and per
holdover arc and commodity the mode allows, one capacity row per
movement copy and one flow conservation equality per (commodity, node
copy). Its columns are generated, not listed (Ford and Fulkerson,
Management Sci. 1958):

1. The first master holds each commodity's fewest-transit route over
   open arcs, shifted to every departure that fits, each column written
   as A_p itself (every slack and artificial is basic). The whole column
   generation of a probe works on this one master, which is its own
   tableau (_PathMaster).
2. Phase one decides the restricted master. A feasible master is a
   feasible probe: its path values are checked against the master's
   rows in explicit code, then become the probe's witness, a flow over
   time (flow_from_paths) that the independent checker
   (qmcflow.checker.check_flow) must accept, or RuntimeError is raised.
3. An infeasible master's final phase-one row gives exact duals: a
   capacity row's dual y_e is its slack's entry, and commodity i's
   demand dual y_i is its artificial's entry plus the artificial's
   cost 1.
4. The commodities are priced round-robin, from the one after the last
   that gave a column, each by one shortest path under the lengths
   l_e = -y_e >= 0, waiting at no cost where the mode allows. The first
   path with y_i - length > 0 ends the round (partial pricing): it is
   appended to the tableau as a column, the copies it uses that have
   no row yet as capacity rows with their slacks basic, and phase one
   resumes from the basis it stopped at. The new column is B^-1 A_p,
   read off the tableau by the same rule as the duals: the slack
   columns of its copies plus the column of commodity i's artificial.

When a round has priced every commodity under the same duals and no
path enters, the lengths are a cut that proves the probe's node-arc LP
infeasible, whatever the masters did, once the independent checker
(qmcflow.checker.check_cut) accepts it, or RuntimeError is raised. So
every probe returns a Verdict that carries exactly one checked
certificate: the witness that check_flow accepted, or the cut that
check_cut accepted.

Each path master is decided by one phase-one simplex on its tableau,
in exact integer arithmetic (integer numerators over per-row
denominators). A master's rows start empty with right-hand sides >= 0:
a capacity row has its slack basic and a demand row its artificial, and
phase one minimizes the sum of the artificials; the master is feasible
exactly when that minimum is zero. An artificial that leaves the basis
stays in the tableau as an ordinary column of cost 1, so the column of
row r's artificial is always B^-1 e_r. The objective is one more tableau
row: it is built from its cost row and updated at every pivot by the
same elimination routine as every other row, and an infeasible run
leaves it for the duals. An index from each column to the rows where it
is nonzero lets a pivot, the ratio test and the build of a new column
touch only those rows. Pivoting is deterministic and has one rule: the
entering column has the largest reduced cost, the smallest column number
on ties, and an exact tie in the ratio test goes to the row whose
[rhs | B^-1] part, divided by its pivot entry, is lexicographically
least, with B^-1's columns in column-number order (Dantzig, Orden and
Wolfe, 1955). Every row of [rhs | B^-1] starts lexicographically
positive, since rhs >= 0 and B^-1 = I, and this choice keeps it so;
hence no basis repeats and phase one terminates under any entering rule.
Column generation keeps that: a new column leaves B^-1 as it is, and a
row appended later holds its own slack basic (e_r in B^-1) while every
earlier row holds 0 in that slack's column, wherever it falls in the
column order. Structural columns rank below every slack and artificials
last, in the order they were added, so the first master of a probe
pivots exactly as a master solved on its own. With exact arithmetic
every verdict is exact.

Least feasible integer horizons are found by one loop (_least_horizon)
inside a bracket proved at both ends, whose ends come from each
commodity's fewest-transit route over open arcs (fewest_transit_route),
found once per instance (_bracket). The lower end rises past each
infeasible probe from a proven start: for a search of its own, the
largest transit of those routes, plus one, among commodities with
positive demand, since no flow crosses an arc of capacity zero and a
movement copy entered at theta arrives by T - 1; for the no-storage
search of a speed-up report, W, the with-storage minimum. The upper end
starts at H, the last arrival of the route witness: those routes
repeated over time without waiting (route_witness; Ford and Fulkerson,
1962), a schedule built with no LP. _bracket checks it once per instance
with check_flow without storage, which also proves it with storage, or
raises RuntimeError; apart from that the search calls no checker. When
H exceeds the search's top, the top alone bounds the search. Until a
probe is feasible, a search of its own gallops up with gaps 1, 2, 4, ...
capped below H, and the no-storage search of a speed-up report probes
H - 1, or, without H, bisects toward 2W, probing 2W last; a search whose
lower end reaches H makes no probe. A feasible probe's witness
(flow_from_paths) then lowers the upper end to its last arrival, and
both bisect the bracket. The search is sound because feasibility is
monotone in the horizon (any schedule for T is also one for T+1).
Validity is decided by qmcflow.core.validate_instance alone, once per
instance; build_time_expanded, and so every probe, rejects an invalid
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping

from .core import (
    FlowOverTime,
    Instance,
    StorageMode,
    _require_mode,
    format_rational,
    validate_instance,
)
from .checker import ViolationReport, check_cut, check_flow
from .expansion import (
    ExpandedNetwork,
    Path,
    build_time_expanded,
    cheapest_path,
    fewest_transit_route,
    flow_from_paths,
    route_departures,
    route_witness,
)
from .instances import cycle_instance

__all__ = [
    "NoHorizonFound",
    "SpeedupReport",
    "Verdict",
    "gap_csv",
    "gap_sweep",
    "min_feasible_horizon",
    "probe_horizon",
    "speedup_ratio",
]

_ZERO = Fraction(0)

class NoHorizonFound(Exception):
    """No feasible horizon exists within the search bound."""


@dataclass(frozen=True)
class Verdict:
    """A probe's verdict and its certificate, exactly one of: flow, the
    witness that check_flow accepted, for a feasible horizon; cut, the
    integer lengths of movement copies that check_cut accepted, for an
    infeasible one. Any other combination raises ValueError."""

    flow: FlowOverTime | None = None
    cut: Mapping[tuple[str, int], int] | None = None

    def __post_init__(self) -> None:
        if (self.flow is None) == (self.cut is None):
            raise ValueError("a verdict carries exactly one certificate: a flow or a cut")

    @property
    def feasible(self) -> bool:
        return self.flow is not None


# Right-hand-side pseudo-column: stored inside each row dict so pivots
# update it with the same arithmetic as every other column. Real columns
# are nonnegative, so -1 never collides.
_RHS = -1

# Column numbers: structural columns count up from 0 in the order they
# are added, the slack of row r is _SLACK + r and its artificial _ART + r.
# So slacks rank above every structural column and artificials last,
# however many rows and columns are appended later; the entering rule's
# tie-break and the ratio test's lexicographic order compare these numbers.
_SLACK = 1 << 40
_ART = 1 << 41


class _PathMaster:
    """The restricted master of one probe: one phase-one tableau in exact
    integer arithmetic, to which rows and columns are appended between
    runs of phase one.

    Column j is paths[j]. Rows: one capacity row per movement copy that
    some path uses (row_of[copy], its slack basic) and one demand
    equality per commodity in demanded (demand_row[i], its artificial
    basic). The first master has the capacity rows of its copies in
    sorted order, then the demand rows, and its columns written as A_p,
    which is B^-1 A_p at its all-slack-and-artificial basis; the copies
    of paths added later get their rows after those. Slacks and
    artificials stay columns whether basic or not, so the tableau always
    holds B^-1 for add and _master_duals to read.

    Each row is a dict of integer numerators over one positive integer
    denominator (dens[r]), reduced by their gcd after every update, and
    basis[r] is its basic column. The phase-one objective is one more
    such row (objective over objective_den), kept apart from rows; one
    elimination routine (_eliminate) builds it and makes every pivot's
    row update. rows_of maps each column to the rows where it may be
    nonzero, so a pivot, the ratio test and the build of a new column
    touch only those rows. It is exact for basic columns and may keep
    rows where a column has cancelled to zero; its users skip those.
    """

    def __init__(
        self, expansion: ExpandedNetwork, demanded: list[int], paths: list[tuple[int, Path]]
    ) -> None:
        self.expansion = expansion
        self.rows: list[dict[int, int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        self.objective: dict[int, int] = {}
        self.objective_den = 1
        self.rows_of: dict[int, set[int]] = {}
        self.paths: list[tuple[int, Path]] = list(paths)
        self.row_of: dict[tuple[str, int], int] = {}
        self.demand_row: dict[int, int] = {}
        self._add_capacity_rows(copy for _, path in paths for copy in path)
        commodities = expansion.instance.commodities
        for i in demanded:
            self.demand_row[i] = len(self.rows)
            demand = commodities[i].demand
            self.add_row(demand.denominator, demand.numerator, False)
        # A_p: a 1 in the rows of the path's copies and in its demand row,
        # and 1 in the phase-one objective (the sum of the demand rows).
        # At this basis A_p is B^-1 A_p, so add would write the same
        # entries, but it builds each column from the slack columns: the
        # first no-storage master of the k=48 cycle at T=94 took 79-86 ms
        # through add against 39-42 ms here, and at k=64, T=126 195-203
        # ms against 91-101 ms (Python 3.11, 2 cores).
        for j, (i, path) in enumerate(paths):
            own = [self.row_of[copy] for copy in path] + [self.demand_row[i]]
            for r in own:
                self.rows[r][j] = self.dens[r]
            self.rows_of[j] = set(own)
            self.objective[j] = self.objective_den

    def add_row(self, den: int, b: int, slack: bool) -> None:
        """Append a row with no column in it yet and right-hand side
        b/den >= 0: a capacity row with its slack basic (slack), or a
        demand row with its artificial basic. The artificial joins the
        objective: its cost -1 is priced out by adding its row. Columns
        enter the row later.
        """
        r = len(self.rows)
        basic = (_SLACK if slack else _ART) + r
        row = {basic: den}
        if b:
            row[_RHS] = b
        self.rows.append(row)
        self.dens.append(den)
        self.basis.append(basic)
        self.rows_of[basic] = {r}
        if not slack:
            self.objective[basic] = -self.objective_den
            self.objective_den = _eliminate(
                self.objective, self.objective_den, -self.objective_den, row.items(), den
            )

    def _add_capacity_rows(self, copies: Iterable[tuple[str, int]]) -> None:
        """One capacity row, its slack basic, for each of the copies that
        has none, in sorted order."""
        arc_by_id = self.expansion.instance.network.arc_by_id
        for copy in sorted({c for c in copies if c not in self.row_of}):
            self.row_of[copy] = len(self.rows)
            capacity = arc_by_id[copy[0]].capacity
            self.add_row(capacity.denominator, capacity.numerator, True)

    def add(self, i: int, path: Path) -> None:
        """Append a priced path of commodity i as a column, after the
        capacity rows of the copies it uses that have none.

        The column enters as B^-1 A_p, the same linear combination of
        the tableau's columns as A_p is of the identity: the slack
        columns of the copies along p plus the column of commodity i's
        artificial. Its objective entry follows by the same rule, plus
        the artificial's cost 1, since the path itself costs nothing.
        """
        self._add_capacity_rows(path)
        rows, rows_of, objective = self.rows, self.rows_of, self.objective
        j = len(self.paths)
        parts = [_SLACK + self.row_of[copy] for copy in path]
        parts.append(_ART + self.demand_row[i])
        column: dict[int, int] = {}
        for c in parts:
            for r in rows_of[c]:
                if v := rows[r].get(c):
                    column[r] = column.get(r, 0) + v
        nonzero = set()
        for r, v in column.items():
            if v:
                rows[r][j] = v
                nonzero.add(r)
        rows_of[j] = nonzero
        value = self.objective_den + sum([objective.get(c, 0) for c in parts])
        if value:
            objective[j] = value
        self.paths.append((i, path))


def _run_phase_one(master: _PathMaster) -> bool:
    """Run phase one from the master's current basis. True when the
    objective, the sum of the artificials, reaches zero (the rows are
    feasible); False when it is positive and no column can enter, which
    leaves the final phase-one row in the objective."""
    rows, objective, rows_of = master.rows, master.objective, master.rows_of

    while objective.get(_RHS, 0) > 0:
        entering = _entering_exact(objective)
        if entering is None:
            return False

        # Ratio test over pairs (rhs numerator, pivot numerator), both
        # over the same row denominator, compared by cross
        # multiplication; an exact tie goes to the lexicographically
        # smaller row (_lex_less).
        pivot_row = None
        best_num = best_den = 0
        for i in rows_of[entering]:
            coeff = rows[i].get(entering, 0)
            if coeff <= 0:
                continue
            num = rows[i].get(_RHS, 0)
            if pivot_row is not None:
                left = num * best_den
                right = best_num * coeff
                if left > right or (
                    left == right and not _lex_less(rows[i], coeff, rows[pivot_row], best_den)
                ):
                    continue
            pivot_row, best_num, best_den = i, num, coeff
        if pivot_row is None:
            # The objective is bounded below by zero, so an improving
            # column always has a blocking row; reaching this means the
            # tableau is corrupt.
            raise RuntimeError("phase-one ratio test found no pivot row")

        _pivot_exact(master, pivot_row, entering)
    return True


def _lex_less(v: dict[int, int], b: int, u: dict[int, int], a: int) -> bool:
    """Whether row v divided by its pivot entry b is lexicographically
    smaller than row u divided by a, over the columns of B^-1 (the
    slacks and artificials) in column order. Both pivot entries are
    positive numerators over their own row's denominator, which cancels,
    so v[c]/b < u[c]/a exactly when v[c] * a < u[c] * b. Rows of a
    nonsingular B^-1 are never proportional; RuntimeError if two are."""
    first = min(
        (c for c in v.keys() | u.keys() if c >= _SLACK and v.get(c, 0) * a != u.get(c, 0) * b),
        default=None,
    )
    if first is None:
        raise RuntimeError("the ratio test tied two rows of B^-1 on every column")
    return v.get(first, 0) * a < u.get(first, 0) * b


def _entering_exact(objective: dict[int, int]) -> int | None:
    """Largest positive objective numerator, smallest index on ties. The
    _RHS cell is not a column. Termination does not rest on this rule:
    the ratio test's lexicographic tie-break prevents cycling under any
    entering rule."""
    best = None
    best_value = 0
    for j, v in objective.items():
        if v <= 0 or j == _RHS:
            continue
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


def _pivot_exact(master: _PathMaster, r: int, entering: int) -> None:
    """Gaussian pivot on (r, entering), whose entry the ratio test found
    positive: row r is divided by its entering value and entering is
    eliminated from every other row where it is nonzero, the objective
    included."""
    rows, dens, rows_of, objective = master.rows, master.dens, master.rows_of, master.objective
    pivot_row = rows[r]
    pivot_num = pivot_row[entering]
    # Row r over den becomes (num_j / den) / (pivot_num / den) =
    # num_j / pivot_num, so the entering cell equals the new denominator:
    # the new basic unit column.
    den_r = dens[r] = _reduce_row(pivot_row, pivot_num)
    pivot_items = tuple(pivot_row.items())
    touched = rows_of[entering]
    touched.discard(r)
    for i in touched:
        row = rows[i]
        if factor := row.get(entering):
            dens[i] = _eliminate(row, dens[i], factor, pivot_items, den_r)
    if factor := objective.get(entering):
        master.objective_den = _eliminate(
            objective, master.objective_den, factor, pivot_items, den_r
        )
    if touched:
        # An updated row gains entries only in the pivot row's columns.
        for j, _ in pivot_items:
            if j != _RHS:
                rows_of[j] |= touched
    rows_of[entering] = {r}
    master.basis[r] = entering


def probe_horizon(
    instance: Instance,
    horizon: int,
    mode: StorageMode,
) -> tuple[ExpandedNetwork, Verdict]:
    """Build the expansion for one horizon and decide its feasibility on
    the path LP by column generation over paths, on one warm master (see
    the module docstring); build_time_expanded rejects invalid instances.
    Returns the expansion and the Verdict, which carries its checked
    certificate.

    The first master holds each commodity's fewest-transit route at
    every departure that fits. While phase one ends infeasible, its
    final row prices the demanded commodities round-robin, from the one
    after the last that gave a column, each by one shortest path; the
    first path with positive reduced cost is appended to the master and
    phase one resumes from the basis it stopped at. When a round prices
    every commodity and none enters, check_cut must accept the lengths,
    which become the verdict's cut, or RuntimeError is raised. A
    feasible master's path values are checked (_master_values) and
    become the witness flow, ending at its last arrival, which check_flow
    must accept, or RuntimeError is raised.
    """
    expansion = build_time_expanded(instance, horizon, mode)
    demanded = [i for i, goods in enumerate(instance.commodities) if goods.demand > 0]
    paths = [(i, path) for i in demanded for path in route_departures(expansion, i)]
    master = _PathMaster(expansion, demanded, paths)
    known = set(paths)
    start = 0
    while not _run_phase_one(master):
        lengths, duals = _master_duals(master)
        for step in range(len(demanded)):
            i = demanded[(start + step) % len(demanded)]
            cheapest = cheapest_path(expansion, i, lengths)
            if cheapest is not None and duals[i] > cheapest[0]:
                break
        else:
            _certify(
                check_cut(horizon, lengths, instance, mode),
                f"the length certificate at T={horizon} does not prove infeasibility",
            )
            return expansion, Verdict(cut=lengths)
        start += step + 1
        column = (i, cheapest[1])
        if column in known:
            # Every master column has reduced cost <= 0 at the end of
            # phase one, so pricing cannot pick one again.
            raise RuntimeError("pricing returned a column the master already has")
        known.add(column)
        master.add(*column)
    flow = flow_from_paths(expansion, master.paths, _master_values(master))
    _certify(check_flow(flow, instance, mode), f"the witness at T={horizon} fails check_flow")
    return expansion, Verdict(flow)


def _certify(report: ViolationReport, what: str) -> None:
    """Raise RuntimeError("<what>: <first violation as JSON>") unless the
    independent checker's report is clean. Every certificate the solver
    relies on passes here, in explicit code, which python -O keeps."""
    if report.violations:
        raise RuntimeError(f"{what}: {report.violations[0].to_json()}")


def _master_values(master: _PathMaster) -> list[Fraction]:
    """The path values of a feasible master, read from its basis and
    checked against its rows in explicit code: every value is
    nonnegative, no copy carries more than its arc's capacity and every
    commodity's demand is met exactly. A failed check raises
    RuntimeError.

    The checks compare integers: each basic value is taken as a
    numerator over D, the lcm of the basic rows' denominators, so a load
    l/D exceeds a capacity p/q exactly when l * q > p * D. Fractions are
    built only for the values returned.
    """
    rows, dens = master.rows, master.dens
    basic = sorted((j, r) for r, j in enumerate(master.basis) if j < _SLACK)
    den = lcm(*[dens[r] for _, r in basic])
    load: dict[tuple[str, int], int] = {}
    met = dict.fromkeys(master.demand_row, 0)
    for j, r in basic:
        if value := rows[r].get(_RHS, 0) * (den // dens[r]):
            i, path = master.paths[j]
            if value < 0:
                raise RuntimeError(f"the master gives a path of commodity {i} a negative value")
            met[i] += value
            for copy in path:
                load[copy] = load.get(copy, 0) + value
    instance = master.expansion.instance
    arc_by_id = instance.network.arc_by_id
    for copy, total in load.items():
        capacity = arc_by_id[copy[0]].capacity
        if total * capacity.denominator > capacity.numerator * den:
            raise RuntimeError(f"the master overloads copy {copy} of the expansion")
    for i, total in met.items():
        demand = instance.commodities[i].demand
        if total * demand.denominator != demand.numerator * den:
            raise RuntimeError(f"the master misses the demand of commodity {i}")
    values = [_ZERO] * len(master.paths)
    for j, r in basic:
        if numerator := rows[r].get(_RHS, 0):
            values[j] = Fraction(numerator, dens[r])
    return values


def _master_duals(master: _PathMaster) -> tuple[dict[tuple[str, int], int], dict[int, int]]:
    """Lengths and demand duals of an infeasible master, read from its
    final phase-one row as integer numerators over the row's denominator.

    The length of copy e is -y_e, where y_e is the entry of its capacity
    row's slack; copies with length 0 are left out. The demand dual y_i
    is the entry of commodity i's artificial plus its cost 1.
    """
    objective = master.objective
    lengths = {}
    for copy, r in master.row_of.items():
        if value := -objective.get(_SLACK + r, 0):
            lengths[copy] = value
    duals = {
        i: objective.get(_ART + r, 0) + master.objective_den for i, r in master.demand_row.items()
    }
    return lengths, duals


Observer = Callable[[ExpandedNetwork, Verdict], None]


def _least_horizon(
    instance: Instance,
    mode: StorageMode,
    lo: int,
    top: int,
    route: FlowOverTime,
    observer: Observer | None,
    gallop: bool,
) -> tuple[int, FlowOverTime]:
    """The least feasible horizon <= top and the witness that settles it,
    given that every horizon below lo is infeasible and that route, a
    checked schedule for its own horizon H >= lo (see the module
    docstring), settles H if H <= top. A witness ending at hi settles
    hi whatever horizon was probed (a flow that has fully arrived by hi
    is a schedule for hi), so no probe reaches hi. Until a probe is
    feasible the next one gallops up from lo with gaps 1, 2, 4, ...
    capped below hi (gallop), or else probes hi - 1 under the route
    witness, or bisects [lo, top] without one; NoHorizonFound once top
    is infeasible too. Once a probe is feasible, each probe bisects
    [lo, hi]. A probe's witness that ends below lo or after its probe
    contradicts the verdicts so far and raises RuntimeError. The observer
    receives every probe's (expansion, verdict).
    """
    witness, hi = None, top + 1
    if route.horizon <= top:
        witness, hi = route, int(route.horizon)
    probed = False
    horizon, gap = lo, 1
    while lo < hi:
        if probed:
            horizon = (lo + hi) // 2
        elif gallop:
            horizon = min(horizon, hi - 1)
        elif witness is not None:
            horizon = hi - 1
        else:
            horizon = (lo + top) // 2
        expansion, verdict = probe_horizon(instance, horizon, mode)
        if observer is not None:
            observer(expansion, verdict)
        if not verdict.feasible:
            lo = horizon + 1
            horizon, gap = horizon + gap, 2 * gap
            continue
        probed = True
        witness, hi = verdict.flow, int(verdict.flow.horizon)
        if hi < lo or hi > horizon:
            raise RuntimeError(
                f"the witness at T={horizon} arrives by {hi}, outside the"
                f" bracket [{lo}, {horizon}] left by the verdicts so far"
            )
    if witness is None:
        raise NoHorizonFound(
            f"no feasible horizon <= {top} in mode {mode.value} (infeasible at T={top})"
        )
    return lo, witness


def _bracket(instance: Instance, mode: StorageMode, t_max: int) -> tuple[int, FlowOverTime]:
    """The proven ends of every search on the instance: the lower end L,
    the largest transit of fewest_transit_route, the route that seeds
    each probe's first master, plus one, among commodities with positive
    demand (1 if there are none), and the route witness along those
    routes (route_witness), which check_flow must accept without
    storage, and so with it, or RuntimeError is raised.

    Raises ValueError for a mode that is not a StorageMode, an invalid
    instance or a t_max that is not an integer >= 1, bools included,
    and NoHorizonFound before any probe when a commodity with positive
    demand has no such route (every horizon is then infeasible; the
    route test is exact, since any such path carries the demand without
    waiting once the horizon is long enough) or when L > t_max.
    """
    _require_mode(mode)
    report = validate_instance(instance)
    if not report.ok:
        raise ValueError(f"invalid instance: {report}")
    if type(t_max) is not int or t_max < 1:
        raise ValueError("t_max must be an integer of at least 1")

    routes = {}
    lower = 1
    for index, commodity in enumerate(instance.commodities):
        if commodity.demand > 0:
            route = fewest_transit_route(instance.network, commodity.source, commodity.sink)
            if route is None:
                raise NoHorizonFound(
                    f"commodity {index} has no path from {commodity.source!r} to "
                    f"{commodity.sink!r} over arcs of positive capacity, so no horizon "
                    f"is feasible in mode {mode.value}"
                )
            routes[index] = route
            lower = max(lower, sum(arc.transit for arc in route) + 1)

    if lower > t_max:
        raise NoHorizonFound(
            f"no feasible horizon <= {t_max} in mode {mode.value}: the transit"
            f" bound proves every horizon below {lower} infeasible"
        )
    witness = route_witness(instance, routes)
    _certify(
        check_flow(witness, instance, StorageMode.NO_INTERMEDIATE_STORAGE),
        f"the route witness ending at {witness.horizon} fails check_flow",
    )
    return lower, witness


def min_feasible_horizon(
    instance: Instance,
    mode: StorageMode,
    t_max: int,
    *,
    observer: Observer | None = None,
) -> tuple[int, FlowOverTime]:
    """Smallest integer horizon T <= t_max whose expansion is feasible,
    and the witness that settles it, a flow over time ending at T.

    The search starts from the proven ends of _bracket, the transit
    bound L and the checked route witness, which ends at H, and gallops
    up L, L + 1, L + 3, L + 7, ..., capped at H - 1 (or at t_max when
    H > t_max), until a probe is feasible, then bisects the bracket
    (_least_horizon). When L = H it makes no probe. The minimum need not
    have been probed itself; the observer receives every probe's
    (expansion, verdict).

    Raises ValueError for invalid instances, and NoHorizonFound when
    even t_max is infeasible or, before any probe, when _bracket proves
    every horizon <= t_max infeasible.
    """
    lower, route = _bracket(instance, mode, t_max)
    return _least_horizon(instance, mode, lower, t_max, route, observer, gallop=True)


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

    Both searches share the proven ends of _bracket, built and checked
    once: the transit bound and the route witness, a no-storage schedule
    ending at H. The with-storage search is min_feasible_horizon's. The
    no-storage search is the same bracket loop (_least_horizon), started
    at W, the with-storage minimum, with top min(t_max, 2W). W is a
    proven lower end: every no-storage schedule is also one with
    storage, and W - 1 was ruled out by a cut that check_cut accepted or
    by the transit bound. When H <= top, the search first probes H - 1
    and then bisects; otherwise it bisects toward the top, which is
    probed last, only if every horizon below it is infeasible. Storage
    speeds things up by at most a factor of two; a violation of that
    bound would surface loudly as NoHorizonFound, never as a silently
    wrong minimum. The observer receives every probe's (expansion,
    verdict) of both searches; ValueError for an invalid instance.
    """
    lower, route = _bracket(instance, StorageMode.WITH_STORAGE, t_max)
    with_storage, _ = _least_horizon(
        instance, StorageMode.WITH_STORAGE, lower, t_max, route, observer, gallop=True
    )
    without_storage, _ = _least_horizon(
        instance,
        StorageMode.NO_INTERMEDIATE_STORAGE,
        with_storage,
        min(t_max, 2 * with_storage),
        route,
        observer,
        gallop=False,
    )
    return SpeedupReport(with_storage, without_storage)


def gap_sweep(
    k_min: int,
    k_max: int,
    *,
    observer: Observer | None = None,
) -> dict[int, SpeedupReport]:
    """Speed-up reports for the cycle family, keyed by k from k_min to k_max.

    Runs serially in order of k, searching each k up to 4k, above both
    minima k + 1 and 2k - 1; the observer sees every probe of every
    search. Requires integers 3 <= k_min <= k_max, bools excluded.
    """
    integers = all(type(k) is int for k in (k_min, k_max))
    if not integers or not 3 <= k_min <= k_max:
        raise ValueError("need 3 <= k_min <= k_max")
    return {
        k: speedup_ratio(cycle_instance(k), 4 * k, observer=observer)
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
