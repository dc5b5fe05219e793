"""Grid checker for flows whose rates are constant on unit intervals.

It shares no code with qmcflow: it reads the instance and flow JSON
documents itself. It applies only to flows whose pieces start and end at
integer times and to instances whose transit times are integers. For
such a flow, every cumulative balance is linear between consecutive
integer times, so checking these at every integer time 0..T is exact:

* capacity: on each arc, the commodities' rates sum to at most the
  capacity on every unit interval [t, t+1);
* conservation: each commodity's cumulative balance (what has arrived
  minus what has left) is nonnegative at every node other than its
  source, and zero at every node other than its source and sink when
  storage is forbidden;
* demands: at T each commodity's balance is +demand at its sink,
  -demand at its source and zero elsewhere.

Violations use qmcflow's kind names so that verdicts can be compared.
"""

from __future__ import annotations

from fractions import Fraction

CAPACITY = "capacity"
CONSERVATION = "conservation"
STRICT_CONSERVATION = "strict-conservation"
DEMAND = "demand"


def _rational(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an exact rational: {value!r}")
    return Fraction(value)


def _integer(value) -> int:
    number = _rational(value)
    if number.denominator != 1:
        raise ValueError(f"not an integer: {value!r}")
    return int(number)


def check(instance: dict, flow: dict, storage: bool) -> list[tuple[str, str, int | None, int]]:
    """Violations as (kind, arc or node, commodity or None, time).

    The list is empty exactly when the flow is feasible. Raises
    ValueError for a flow off the unit grid or one that names an unknown
    arc or commodity.
    """
    arcs = {
        arc["id"]: (arc["tail"], arc["head"], _rational(arc["capacity"]), _integer(arc["transit"]))
        for arc in instance["arcs"]
    }
    commodities = [
        (commodity["source"], commodity["sink"], _rational(commodity["demand"]))
        for commodity in instance["commodities"]
    ]
    horizon = _integer(flow["horizon"])

    # Rate of each (arc, commodity) on each unit interval, keyed by its start.
    cells: dict[tuple[str, int], dict[int, Fraction]] = {}
    for entry in flow["rates"]:
        arc, commodity = entry["arc"], entry["commodity"]
        if arc not in arcs or not 0 <= commodity < len(commodities):
            raise ValueError(f"unknown arc or commodity: {arc!r}, {commodity!r}")
        row = cells.setdefault((arc, commodity), {})
        for piece in entry["pieces"]:
            start, end, rate = _integer(piece["from"]), _integer(piece["to"]), _rational(piece["rate"])
            if not 0 <= start < end <= horizon or rate < 0:
                raise ValueError(f"piece outside [0, {horizon}) or negative: {piece!r}")
            for t in range(start, end):
                row[t] = row.get(t, 0) + rate

    violations: list[tuple[str, str, int | None, int]] = []

    load: dict[tuple[str, int], Fraction] = {}
    for (arc, _), row in cells.items():
        for t, rate in row.items():
            load[arc, t] = load.get((arc, t), 0) + rate
    for (arc, t), total in sorted(load.items()):
        if total > arcs[arc][2]:
            violations.append((CAPACITY, arc, None, t))

    # Change of each (commodity, node) balance at each integer time:
    # flow entering an arc during [t, t+1) has left its tail by t+1 and
    # has reached its head by t+transit+1.
    changes: dict[tuple[int, str], dict[int, Fraction]] = {}
    for (arc, commodity), row in cells.items():
        tail, head, _, transit = arcs[arc]
        leaving = changes.setdefault((commodity, tail), {})
        arriving = changes.setdefault((commodity, head), {})
        for t, rate in row.items():
            leaving[t + 1] = leaving.get(t + 1, 0) - rate
            arriving[t + transit + 1] = arriving.get(t + transit + 1, 0) + rate

    for index, (source, sink, demand) in enumerate(commodities):
        for node in instance["nodes"]:
            balance = Fraction(0)
            # Between two change times the balance is the same at every
            # integer time, so checking at change times covers all of 0..T.
            for t, change in sorted(changes.get((index, node), {}).items()):
                if t > horizon:
                    break
                balance += change
                if node == source:
                    continue
                if balance < 0:
                    violations.append((CONSERVATION, node, index, t))
                elif balance > 0 and not storage and node != sink:
                    violations.append((STRICT_CONSERVATION, node, index, t))
            expected = demand if node == sink else -demand if node == source else 0
            if balance != expected:
                violations.append((DEMAND, node, index, horizon))
    return violations
