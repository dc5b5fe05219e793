"""Domain model for multi-commodity flows over time.

A network carries directed arcs with a flow-rate capacity and an integer
transit time. Commodities are (source, sink, demand) triples routed
separately while sharing arc capacities. A flow over time assigns each
(arc, commodity) pair a piecewise-constant rate function on [0, T): flow
entering an arc at time theta leaves its head at theta plus the transit
time.

All quantities are exact rationals (fractions.Fraction). Floats are
rejected at the boundaries so that feasibility verdicts computed
downstream are exact, never approximate.

The parsers validate each distinct literal text, and parse_flow each
distinct piece list, once per document, and reuse the Fraction or the
StepFunction for every repeat; rational() is the only literal grammar.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterable

__all__ = [
    "Arc",
    "Commodity",
    "Defect",
    "FlowOverTime",
    "Instance",
    "Network",
    "ParseError",
    "Piece",
    "StepFunction",
    "StorageMode",
    "ValidationReport",
    "format_rational",
    "parse_flow",
    "parse_instance",
    "rational",
    "reachable_nodes",
    "serialize_flow",
    "serialize_instance",
    "step_function",
    "validate_instance",
]

_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")


class ParseError(ValueError):
    """An instance or flow document does not match the file format.

    The message names the offending JSON path, the line and column of a
    syntax error, or the document for any other value json.loads
    rejects.
    """


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an exact value to a Fraction.

    Accepts ints, Fractions and strings of the form "p" or "p/q" with a
    positive denominator. Floats are rejected: binary floats would smuggle
    rounding error into otherwise exact arithmetic.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rational values")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"not a rational literal: {value!r}")
        if "/" in text:
            num, den = text.split("/")
            if int(den) == 0:
                raise ValueError(f"denominator must be positive: {value!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    raise TypeError(f"expected int, str or Fraction, got {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p" for integers, "p/q" otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Arc:
    """Directed arc with a rate capacity and an integer transit time.

    Parallel arcs are permitted; the id distinguishes them.
    """

    id: str
    tail: str
    head: str
    capacity: Fraction
    transit: int


@dataclass(frozen=True)
class Network:
    """Directed multigraph. Constructors do not validate; see validate_instance."""

    nodes: tuple[str, ...]
    arcs: tuple[Arc, ...]

    @cached_property
    def node_set(self) -> frozenset[str]:
        return frozenset(self.nodes)

    @cached_property
    def arc_by_id(self) -> dict[str, Arc]:
        table: dict[str, Arc] = {}
        for arc in self.arcs:
            table.setdefault(arc.id, arc)
        return table

    @cached_property
    def out_arcs(self) -> dict[str, tuple[Arc, ...]]:
        table: dict[str, list[Arc]] = {node: [] for node in self.nodes}
        for arc in self.arcs:
            table.setdefault(arc.tail, []).append(arc)
            table.setdefault(arc.head, [])
        return {node: tuple(arcs) for node, arcs in table.items()}


@dataclass(frozen=True)
class Commodity:
    """One demand to route: ship `demand` units from source to sink."""

    source: str
    sink: str
    demand: Fraction


@dataclass(frozen=True)
class Instance:
    """A network together with an ordered list of commodities.

    Commodity identity is positional: commodity i is commodities[i].
    """

    network: Network
    commodities: tuple[Commodity, ...]

    @cached_property
    def _report(self) -> ValidationReport:
        return _find_defects(self)

    @cached_property
    def least_transits(self) -> tuple[int, ...]:
        """Each commodity's least total transit from its source to its
        sink over every arc, capacity 0 and transit 0 included, worked
        out once per Instance by one Dijkstra search per distinct source.
        Only for an instance that validate_instance accepts, where every
        sink is reachable; KeyError otherwise."""
        searched: dict[str, dict[str, int]] = {}
        transits = []
        for goods in self.commodities:
            if goods.source not in searched:
                searched[goods.source] = _transit_distances(self.network, goods.source)
            transits.append(searched[goods.source][goods.sink])
        return tuple(transits)


class StorageMode(Enum):
    """Whether flow may wait at intermediate nodes.

    WITH_STORAGE allows flow to pause anywhere. NO_INTERMEDIATE_STORAGE
    requires flow to leave every node other than its own source and sink
    the moment it arrives; cumulative inflow must equal cumulative
    outflow there at all times.
    """

    WITH_STORAGE = "with-storage"
    NO_INTERMEDIATE_STORAGE = "no-storage"


def _require_horizon(horizon: int) -> None:
    """Reject a horizon that is not a positive integer, bools included."""
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise ValueError("horizon must be a positive integer")


def _require_mode(mode: StorageMode) -> None:
    """Reject a mode that is not a StorageMode, such as its value string."""
    if not isinstance(mode, StorageMode):
        raise ValueError("mode must be a StorageMode")


@dataclass(frozen=True)
class Piece:
    """Constant rate on the half-open interval [start, end)."""

    start: Fraction
    end: Fraction
    rate: Fraction


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant rate on [0, domain_end); gaps mean rate zero.

    Pieces must be sorted, pairwise disjoint, nonempty and contained in
    the domain; rates are nonnegative. Construction enforces this, so a
    StepFunction in hand is always structurally valid.
    """

    domain_end: Fraction
    pieces: tuple[Piece, ...]

    def __post_init__(self) -> None:
        # Compared in integers: p/q < r/s iff p*s < r*q, as q, s > 0.
        end_num, end_den = self.domain_end.numerator, self.domain_end.denominator
        if end_num <= 0:
            raise ValueError("domain end must be positive")
        previous_num, previous_den = 0, 1
        for index, piece in enumerate(self.pieces):
            start, end = piece.start, piece.end
            start_num, start_den = start.numerator, start.denominator
            num, den = end.numerator, end.denominator
            if piece.rate.numerator < 0:
                raise ValueError(f"piece {index}: rate must be nonnegative")
            if start_num < 0 or num * end_den > end_num * den:
                raise ValueError(f"piece {index}: not contained in [0, {self.domain_end})")
            if start_num * den >= num * start_den:
                raise ValueError(f"piece {index}: empty or reversed interval")
            if start_num * previous_den < previous_num * start_den:
                raise ValueError(f"piece {index}: overlaps or is out of order")
            previous_num, previous_den = num, den


def step_function(
    domain_end: int | str | Fraction,
    pieces: Iterable[tuple[int | str | Fraction, int | str | Fraction, int | str | Fraction]] = (),
) -> StepFunction:
    """Convenience constructor coercing piece triples to exact rationals."""
    return StepFunction(
        rational(domain_end),
        tuple([Piece(rational(s), rational(e), rational(r)) for s, e, r in pieces]),
    )


@dataclass(frozen=True)
class FlowOverTime:
    """Flow rates keyed by (arc id, commodity index); absent pairs are zero.

    Every rate function's domain end must equal the horizon. Whether the
    referenced arcs and commodities exist is checked against an instance
    by the checker operations, not here.
    """

    horizon: Fraction
    rates: dict[tuple[str, int], StepFunction]

    def __post_init__(self) -> None:
        # Fractions are in lowest terms: equal iff numerators and denominators are.
        num, den = self.horizon.numerator, self.horizon.denominator
        if num <= 0:
            raise ValueError("horizon must be positive")
        for key, step in self.rates.items():
            end = step.domain_end
            if end is not self.horizon and (end.numerator != num or end.denominator != den):
                raise ValueError(
                    f"rate for {key!r}: domain end {step.domain_end} differs from horizon {self.horizon}"
                )


@dataclass(frozen=True)
class Defect:
    """One violated instance invariant, naming the offending element."""

    invariant: str
    element: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    defects: tuple[Defect, ...]

    @property
    def ok(self) -> bool:
        return not self.defects

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(f"{d.invariant}: {d.element}: {d.detail}" for d in self.defects)


def validate_instance(instance: Instance) -> ValidationReport:
    """Check every instance invariant and report all defects found.

    Covered: unique node and arc ids, arc endpoints exist, no self-loops,
    nonnegative capacities, nonnegative integer transit times, commodity
    endpoints exist and differ, nonnegative demands, and a directed path
    from every commodity's source to its sink. Validity is decided here
    only, and the report is worked out once per Instance and cached on
    the frozen object, as Network caches arc_by_id.
    """
    return instance._report


def _find_defects(instance: Instance) -> ValidationReport:
    defects: list[Defect] = []
    network = instance.network

    seen_nodes: set[str] = set()
    for node in network.nodes:
        if node in seen_nodes:
            defects.append(Defect("duplicate node id", node, "node listed more than once"))
        seen_nodes.add(node)

    seen_arcs: set[str] = set()
    for arc in network.arcs:
        if arc.id in seen_arcs:
            defects.append(Defect("duplicate arc id", arc.id, "arc id used more than once"))
        seen_arcs.add(arc.id)
        for endpoint in (arc.tail, arc.head):
            if endpoint not in seen_nodes:
                defects.append(
                    Defect("unknown arc endpoint", arc.id, f"node {endpoint!r} is not in the network")
                )
        if arc.tail == arc.head:
            defects.append(Defect("self-loop", arc.id, f"tail and head are both {arc.tail!r}"))
        if arc.capacity < 0:
            defects.append(Defect("negative capacity", arc.id, f"capacity {arc.capacity} is negative"))
        if isinstance(arc.transit, bool) or not isinstance(arc.transit, int):
            defects.append(Defect("non-integer transit", arc.id, f"transit {arc.transit!r} is not an integer"))
        elif arc.transit < 0:
            defects.append(Defect("negative transit", arc.id, f"transit {arc.transit} is negative"))

    for index, commodity in enumerate(instance.commodities):
        element = f"commodity {index}"
        endpoints_known = True
        for endpoint in (commodity.source, commodity.sink):
            if endpoint not in network.node_set:
                defects.append(
                    Defect("unknown commodity endpoint", element, f"node {endpoint!r} is not in the network")
                )
                endpoints_known = False
        if commodity.source == commodity.sink:
            defects.append(
                Defect("source equals sink", element, f"both endpoints are {commodity.source!r}")
            )
        if commodity.demand < 0:
            defects.append(Defect("negative demand", element, f"demand {commodity.demand} is negative"))
        if endpoints_known and commodity.source != commodity.sink:
            if commodity.sink not in reachable_nodes(network, commodity.source):
                defects.append(
                    Defect(
                        "sink unreachable",
                        element,
                        f"no directed path from {commodity.source!r} to {commodity.sink!r}",
                    )
                )

    return ValidationReport(tuple(defects))


def reachable_nodes(network: Network, source: str) -> frozenset[str]:
    """Nodes reachable from source by directed arcs, including source.

    Transit times and capacities are ignored, so validate_instance can
    call this on arcs whose transits are negative or not integers. The
    transit-aware search is qmcflow.expansion.fewest_transit_route.
    """
    if source not in network.node_set:
        raise ValueError(f"unknown node: {source!r}")
    seen = {source}
    frontier = [source]
    while frontier:
        node = frontier.pop()
        for arc in network.out_arcs.get(node, ()):
            if arc.head not in seen:
                seen.add(arc.head)
                frontier.append(arc.head)
    return frozenset(seen)


def _transit_distances(network: Network, source: str) -> dict[str, int]:
    """Least total transit from source to every node it reaches, over
    every arc whatever its capacity."""
    best = {source: 0}
    heap = [(0, source)]
    while heap:
        dist, node = heappop(heap)
        if dist > best[node]:
            continue
        for arc in network.out_arcs[node]:
            candidate = dist + arc.transit
            if candidate < best.get(arc.head, candidate + 1):
                best[arc.head] = candidate
                heappush(heap, (candidate, arc.head))
    return best


# --- file formats ---------------------------------------------------------
#
# Instance documents:
#   {"nodes": ["v0", ...],
#    "arcs": [{"id": "a0", "tail": "v0", "head": "v1",
#              "capacity": "1", "transit": 1}, ...],
#    "commodities": [{"source": "v0", "sink": "v3", "demand": "2"}, ...]}
#
# Flow documents:
#   {"horizon": "5",
#    "rates": [{"arc": "a0", "commodity": 0,
#               "pieces": [{"from": "0", "to": "2", "rate": "1"}]}, ...]}
#
# Rationals are JSON integers or strings "p/q" with q > 0. Transit times
# must be integers; a fractional transit is rejected outright.
#
# The writers emit exactly what json.dumps writes for doc with indent 2,
# plus a newline, doc holding the keys in the order above. They format
# each entry with f-strings instead of building a copy of the document
# for json.dumps, whose indent mode runs the pure-Python encoder. Ids go
# through json.dumps, the C ASCII escaper that encoder uses; rationals
# are quoted format_rational text (digits, "-" and "/", nothing to
# escape) and integers are str(n).


def _load_json(text: str, what: str):
    """Decode a document; a syntax error, nesting too deep for the
    decoder (RecursionError) or any other value json.loads rejects, such
    as an integer past the digit limit, is a ParseError naming what."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:
        raise ParseError(f"{what}: invalid JSON: {exc}") from None


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ParseError(f"{path}: {message}")


def _get(obj: dict, key: str, path: str):
    _require(isinstance(obj, dict), path, "must be a JSON object")
    _require(key in obj, path, f"missing required key {key!r}")
    return obj[key]


def _string_field(obj: dict, key: str, path: str) -> str:
    value = _get(obj, key, path)
    _require(isinstance(value, str), f"{path}.{key}", "must be a string")
    return value


def _rational_field(obj: dict, key: str, path: str, literals: dict[str, Fraction]) -> Fraction:
    """Read obj[key] as an exact rational.

    String literals go through rational(), the only literal grammar, once
    per document: literals maps each accepted text to its value.
    """
    value = _get(obj, key, path)
    if type(value) is str:
        cached = literals.get(value)
        if cached is None:
            try:
                cached = literals[value] = rational(value)
            except ValueError as exc:
                raise ParseError(f"{path}.{key}: {exc}") from None
        return cached
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"{path}.{key}: must be an integer or a 'p/q' string (floats are not exact)")
    if isinstance(value, int):
        return Fraction(value)
    raise ParseError(f"{path}.{key}: must be an integer or a 'p/q' string")


def _integer_field(obj: dict, key: str, path: str, literals: dict[str, Fraction]) -> int:
    value = _rational_field(obj, key, path, literals)
    if value.denominator != 1:
        raise ParseError(f"{path}.{key}: must be an integer, got {format_rational(value)}")
    return int(value)


def _read_arc(raw, path: str, literals: dict[str, Fraction]) -> Arc:
    """One arc through the field readers, which raise the error naming its path."""
    _require(isinstance(raw, dict), path, "must be a JSON object")
    capacity = _rational_field(raw, "capacity", path, literals)
    _require(capacity >= 0, f"{path}.capacity", "capacity must be nonnegative")
    transit = _integer_field(raw, "transit", path, literals)
    _require(transit >= 0, f"{path}.transit", "transit must be nonnegative")
    ids = [_string_field(raw, key, path) for key in ("id", "tail", "head")]
    return Arc(*ids, capacity, transit)


def _read_commodity(raw, path: str, literals: dict[str, Fraction]) -> Commodity:
    """One commodity through the field readers, which raise the error naming its path."""
    _require(isinstance(raw, dict), path, "must be a JSON object")
    demand = _rational_field(raw, "demand", path, literals)
    _require(demand >= 0, f"{path}.demand", "demand must be nonnegative")
    return Commodity(_string_field(raw, "source", path), _string_field(raw, "sink", path), demand)


def parse_instance(text: str) -> Instance:
    """Parse an instance document.

    Format-level constraints (shape, rational literals, sign of capacity,
    transit and demand) raise ParseError naming the offending path.
    Graph-level invariants are left to validate_instance. As in
    parse_flow, fields are read directly; an arc or commodity with a
    value missing, mistyped or negative takes the field readers, which
    raise the same errors, as does a capacity or demand new to literals.
    """
    doc = _load_json(text, "instance")
    _require(isinstance(doc, dict), "instance", "must be a JSON object")
    literals: dict[str, Fraction] = {}

    raw_nodes = _get(doc, "nodes", "instance")
    _require(isinstance(raw_nodes, list), "instance.nodes", "must be an array")
    for i, value in enumerate(raw_nodes):
        if type(value) is not str:
            raise ParseError(f"nodes[{i}]: must be a string")

    raw_arcs = _get(doc, "arcs", "instance")
    _require(isinstance(raw_arcs, list), "instance.arcs", "must be an array")
    arcs: list[Arc] = []
    for i, raw in enumerate(raw_arcs):
        try:
            capacity = literals.get(raw["capacity"])
            if capacity is None:
                capacity = _rational_field(raw, "capacity", f"arcs[{i}]", literals)
            arc = Arc(raw["id"], raw["tail"], raw["head"], capacity, raw["transit"])
        except (KeyError, TypeError):
            arc = None
        if not (
            arc
            and type(arc.id) is type(arc.tail) is type(arc.head) is str
            and type(arc.transit) is int
            and arc.transit >= 0
            and capacity.numerator >= 0
        ):
            arc = _read_arc(raw, f"arcs[{i}]", literals)
        arcs.append(arc)

    raw_commodities = _get(doc, "commodities", "instance")
    _require(isinstance(raw_commodities, list), "instance.commodities", "must be an array")
    commodities: list[Commodity] = []
    for i, raw in enumerate(raw_commodities):
        try:
            demand = literals.get(raw["demand"])
            if demand is None:
                demand = _rational_field(raw, "demand", f"commodities[{i}]", literals)
            commodity = Commodity(raw["source"], raw["sink"], demand)
        except (KeyError, TypeError):
            commodity = None
        if not (commodity and type(commodity.source) is type(commodity.sink) is str and demand.numerator >= 0):
            commodity = _read_commodity(raw, f"commodities[{i}]", literals)
        commodities.append(commodity)

    return Instance(Network(tuple(raw_nodes), tuple(arcs)), tuple(commodities))


def _json_array(items: list[str], indent: str) -> str:
    """Lay out already indented items as json.dumps with indent 2 lays out
    an array; indent is that of the line holding the array."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + f"\n{indent}]"


def serialize_instance(instance: Instance) -> str:
    """Render an instance document; parse_instance inverts this exactly.

    The text is, byte for byte, what json.dumps writes for doc with
    indent 2, plus a newline; doc is the document as the format notes
    above lay it out.
    """
    fmt = format_rational
    nodes = [f"    {json.dumps(node)}" for node in instance.network.nodes]
    arcs = [
        f'    {{\n      "id": {json.dumps(arc.id)},\n      "tail": {json.dumps(arc.tail)},\n'
        f'      "head": {json.dumps(arc.head)},\n      "capacity": "{fmt(arc.capacity)}",\n'
        f'      "transit": {arc.transit}\n    }}'
        for arc in instance.network.arcs
    ]
    commodities = [
        f'    {{\n      "source": {json.dumps(commodity.source)},\n'
        f'      "sink": {json.dumps(commodity.sink)},\n      "demand": "{fmt(commodity.demand)}"\n    }}'
        for commodity in instance.commodities
    ]
    return (
        f'{{\n  "nodes": {_json_array(nodes, "  ")},\n  "arcs": {_json_array(arcs, "  ")},\n'
        f'  "commodities": {_json_array(commodities, "  ")}\n}}\n'
    )


def parse_flow(text: str) -> FlowOverTime:
    """Parse a flow document. Structural defects raise ParseError.

    The decoded document is read once. Each field is first read
    directly; only a value that is missing or not of its usual exact type
    goes through the field readers, which accept it or raise the error
    naming its path, so no path is formatted for a valid field. An entry
    whose piece strings repeat an earlier one's shares its StepFunction;
    any other has every piece's literals and signs read before
    StepFunction checks the order of its pieces.
    """
    doc = _load_json(text, "flow")
    _require(isinstance(doc, dict), "flow", "must be a JSON object")
    literals: dict[str, Fraction] = {}

    horizon = _rational_field(doc, "horizon", "flow", literals)
    _require(horizon > 0, "flow.horizon", "horizon must be positive")

    raw_rates = _get(doc, "rates", "flow")
    _require(isinstance(raw_rates, list), "flow.rates", "must be an array")

    rates: dict[tuple[str, int], StepFunction] = {}
    steps: dict[tuple[tuple[str, str, str], ...], StepFunction] = {}
    for i, raw in enumerate(raw_rates):
        if type(raw) is not dict:
            raise ParseError(f"rates[{i}]: must be a JSON object")
        arc_id = raw.get("arc")
        if type(arc_id) is not str:
            arc_id = _string_field(raw, "arc", f"rates[{i}]")
        commodity = raw.get("commodity")
        if type(commodity) is not int:
            commodity = _integer_field(raw, "commodity", f"rates[{i}]", literals)
        if commodity < 0:
            raise ParseError(f"rates[{i}].commodity: commodity index must be nonnegative")
        key = (arc_id, commodity)
        if key in rates:
            raise ParseError(f"rates[{i}]: duplicate rate entry for arc {arc_id!r}, commodity {commodity}")
        raw_pieces = raw.get("pieces")
        if type(raw_pieces) is not list:
            _get(raw, "pieces", f"rates[{i}]")
            raise ParseError(f"rates[{i}].pieces: must be an array")
        # steps is keyed by piece lists of strings only: True == 1 and both
        # hash alike, but neither matches a string.
        try:
            texts = tuple([(p["from"], p["to"], p["rate"]) for p in raw_pieces])
            step = steps.get(texts)
        except (KeyError, TypeError):
            texts = step = None
        if step is not None:
            rates[key] = step
            continue
        shared = texts is not None
        pieces: list[Piece] = []
        for j, raw_piece in enumerate(raw_pieces):
            # literals has only string keys, so a number, bool or null
            # never matches and takes the field readers instead.
            try:
                start = literals[raw_piece["from"]]
                end = literals[raw_piece["to"]]
                rate = literals[raw_piece["rate"]]
            except (KeyError, TypeError):
                piece_path = f"rates[{i}].pieces[{j}]"
                start = _rational_field(raw_piece, "from", piece_path, literals)
                end = _rational_field(raw_piece, "to", piece_path, literals)
                rate = _rational_field(raw_piece, "rate", piece_path, literals)
                shared = shared and all([type(text) is str for text in texts[j]])
            if start.numerator < 0:
                raise ParseError(f"rates[{i}].pieces[{j}].from: must be nonnegative")
            if rate.numerator < 0:
                raise ParseError(f"rates[{i}].pieces[{j}].rate: rate must be nonnegative")
            pieces.append(Piece(start, end, rate))
        try:
            rates[key] = StepFunction(horizon, tuple(pieces))
        except ValueError as exc:
            raise ParseError(f"rates[{i}].pieces: {exc}") from None
        if shared:
            steps[texts] = rates[key]

    # Every step was built with horizon, which is checked positive, so
    # this cannot raise.
    return FlowOverTime(horizon, rates)


def serialize_flow(flow: FlowOverTime) -> str:
    """Render a flow document; entries are sorted for stable output.

    The text is, byte for byte, what json.dumps writes for doc with
    indent 2, plus a newline; doc is the document as the format notes
    above lay it out.
    """
    fmt = format_rational
    rates = flow.rates
    entries = []
    for arc_id, commodity in sorted(rates):
        pieces = [
            f'        {{\n          "from": "{fmt(piece.start)}",\n          "to": "{fmt(piece.end)}",\n'
            f'          "rate": "{fmt(piece.rate)}"\n        }}'
            for piece in rates[arc_id, commodity].pieces
        ]
        entries.append(
            f'    {{\n      "arc": {json.dumps(arc_id)},\n      "commodity": {commodity},\n'
            f'      "pieces": {_json_array(pieces, "      ")}\n    }}'
        )
    return f'{{\n  "horizon": "{fmt(flow.horizon)}",\n  "rates": {_json_array(entries, "  ")}\n}}\n'
