"""Instance generators and hand-built witness schedules.

The cycle family is the interesting one: k nodes v0..v(k-1) on a directed
cycle whose arcs all have capacity 1 and transit time 1, and one commodity
per node that travels the long way around to the node just before its
source. Commodity 0 carries demand d0 (2 by default), every other
commodity carries demand 1. Because each commodity must cross k-1 arcs of
a ring with total capacity k, storage at intermediate nodes buys real
time: the family's least feasible integer horizons, k+1 with storage and
2k-1 without, differ sharply between the two storage modes, and their
ratio grows toward 2 as k grows. These are integer-horizon results, not
the quickest times: schedules may end at a fractional time, and without
storage the k=3 cycle already has one that ends at 13/3 < 5.

Two explicit schedules witness upper bounds for the default family:

* wait_schedule_with_storage finishes by T = k+1. Everyone departs at
  once; commodities 2..k-1 pause exactly one time unit at the hub v0 to
  let commodity 0's two-unit pulse pass.
* wave_schedule_no_storage finishes by T = 2k-1 without any intermediate
  waiting: a first wave of one unit per commodity saturates the whole
  ring during [0, k-1), and commodity 0's second unit follows as a
  trailing wave injected during [k-1, k).

Neither schedule is trusted by construction. Tests certify both with the
checker before anything else relies on them.

Two closed-form cuts (qmcflow.checker.check_cut) prove the horizons just
below those minima infeasible. A cut's budget is the sum of its lengths,
all capacities being 1; a movement copy (a, theta) of the time expansion
at horizon T exists only for theta <= T-2. Each commodity's route has
k-1 arcs, and a route that goes round the ring more than once has more.
Both arguments take the default d0 = 2:

* Without storage, at T = 2k-2: length 1 on (aj, k-2) for every j, a
  budget of k. Copies exist only for theta <= 2k-4, and a path cannot
  wait between two of its copies, so every path departs at some
  theta <= k-2 and its copies cover the consecutive layers
  theta..theta+k-2, which include layer k-2. Every commodity pays 1,
  and the demand side is d0 + k-1 = k+1 > k.
* With storage, at T = k: length 1 on (a0, theta) for theta = 0..k-2
  and on (a1, 0), a budget of k. A path's k-1 copies lie at distinct
  layers, so they fill layers 0..k-2 with no slack, and commodity i
  crosses a(i+m) at layer m. Commodity 0 pays (a0, 0), commodity 1 pays
  (a1, 0), and commodity i >= 2 pays (a0, k-i). The demand side is
  2 + 1 + (k-2) = k+1 > k.
  The cut proves T = k infeasible without (a1, 0) too: k against k-1.

Both are time-slice cuts, which the solver finds with no LP
(qmcflow.solver._time_slice_cut): the first is its no-storage slice at
theta = k-2. Its with-storage slice differs from the second: since every
commodity must depart at 0, it puts length 1 on every (aj, 0), not on
a0's copies, again a budget of k against k+1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    Arc,
    Commodity,
    FlowOverTime,
    Instance,
    Network,
    Piece,
    StepFunction,
    rational,
    reachable_nodes,
    validate_instance,
)

__all__ = [
    "CycleParams",
    "cycle_instance",
    "random_instance",
    "wait_schedule_with_storage",
    "wave_schedule_no_storage",
]

_ONE = Fraction(1)

# Capacity and demand pools for random instances. Demands stay small
# relative to capacities so that minimum horizons of the generated
# instances stay well inside the search bounds used by the tests.
_RANDOM_CAPACITIES = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
_RANDOM_DEMANDS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))

_RESAMPLE_BUDGET = 50


@dataclass(frozen=True)
class CycleParams:
    """Parameters of the cycle family: size k >= 3 and commodity 0's demand."""

    k: int
    d0: Fraction = field(default=Fraction(2))

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 3:
            raise ValueError("k must be an integer >= 3")
        object.__setattr__(self, "d0", rational(self.d0))
        if self.d0 <= 0:
            raise ValueError("d0 must be positive")


def cycle_instance(params: CycleParams | int) -> Instance:
    """Build the directed cycle instance for the given parameters.

    Nodes v0..v(k-1); arc aj runs vj -> v(j+1 mod k) with capacity 1 and
    transit 1. Commodity i ships from vi to v(i-1 mod k); commodity 0 has
    demand d0, the rest demand 1.
    """
    p = params if isinstance(params, CycleParams) else CycleParams(params)
    k = p.k
    nodes = tuple(f"v{i}" for i in range(k))
    arcs = tuple(Arc(f"a{j}", f"v{j}", f"v{(j + 1) % k}", _ONE, 1) for j in range(k))
    commodities = tuple(
        Commodity(f"v{i}", f"v{(i - 1) % k}", p.d0 if i == 0 else _ONE) for i in range(k)
    )
    return Instance(Network(nodes, arcs), commodities)


def wait_schedule_with_storage(k: int) -> FlowOverTime:
    """Schedule finishing the default cycle instance by T = k+1, using storage.

    Commodity 0 pushes at rate 1 for two time units straight through
    v0 -> v1 -> ... -> v(k-1): it occupies arc aj during [j, j+2).
    Commodity i >= 1 injects one unit at rate 1 during [0, 1) and rides
    to v0 without stopping, crossing a(i+m) during [m, m+1). Commodity 1
    is then done. Commodities i >= 2 hold their unit at v0 for exactly
    one time unit and continue, crossing aj during [k-i+1+j, k-i+2+j),
    which keeps them just behind commodity 0's pulse.
    """
    CycleParams(k)  # raises ValueError unless k is an integer >= 3
    horizon = Fraction(k + 1)
    rates: dict[tuple[str, int], StepFunction] = {}

    def put(arc: int, commodity: int, start: int, end: int) -> None:
        piece = Piece(Fraction(start), Fraction(end), _ONE)
        rates[f"a{arc}", commodity] = StepFunction(horizon, (piece,))

    for j in range(k - 1):
        put(j, 0, j, j + 2)
    for i in range(1, k):
        for m in range(k - i):
            put(i + m, i, m, m + 1)
        for j in range(i - 1):
            put(j, i, k - i + 1 + j, k - i + 2 + j)
    return FlowOverTime(horizon, rates)


def wave_schedule_no_storage(k: int) -> FlowOverTime:
    """Schedule finishing the default cycle instance by T = 2k-1 without storage.

    Every commodity injects one unit at rate 1 during [0, 1) and never
    waits: commodity i crosses arc a(i+m mod k) during [m, m+1), so each
    arc carries exactly one commodity on each unit interval of [0, k-1).
    Commodity 0's second unit departs during [k-1, k), after the ring has
    drained, and crosses aj during [k-1+j, k+j), arriving by 2k-1.
    """
    CycleParams(k)  # raises ValueError unless k is an integer >= 3
    horizon = Fraction(2 * k - 1)
    pieces: dict[tuple[str, int], list[Piece]] = {}

    def put(arc: int, commodity: int, start: int, end: int) -> None:
        piece = Piece(Fraction(start), Fraction(end), _ONE)
        pieces.setdefault((f"a{arc}", commodity), []).append(piece)

    for i in range(k):
        for m in range(k - 1):
            put((i + m) % k, i, m, m + 1)
    for j in range(k - 1):
        put(j, 0, k - 1 + j, k + j)

    # Each key's pieces are put in start order.
    rates = {key: StepFunction(horizon, tuple(parts)) for key, parts in pieces.items()}
    return FlowOverTime(horizon, rates)


def random_instance(
    seed: int,
    node_max: int,
    arc_max: int,
    commodity_max: int,
    tau_max: int,
) -> Instance:
    """Deterministic random instance within the given size bounds.

    The same seed and bounds always produce the same instance. Every
    commodity's sink is sampled among the nodes reachable from its
    source, so the result always passes validate_instance. Raises
    RuntimeError if the resample budget is exhausted, which only happens
    for bounds that make commodities nearly impossible to place.
    """
    if node_max < 2:
        raise ValueError("node_max must be at least 2 to place a commodity")
    if arc_max < 1 or commodity_max < 1:
        raise ValueError("arc_max and commodity_max must be at least 1")
    if tau_max < 0:
        raise ValueError("tau_max must be nonnegative")

    rng = random.Random(seed)
    for _ in range(_RESAMPLE_BUDGET):
        node_count = rng.randint(2, node_max)
        nodes = tuple(f"n{i}" for i in range(node_count))
        arc_count = rng.randint(1, arc_max)
        arcs = []
        for j in range(arc_count):
            tail = rng.choice(nodes)
            head = rng.choice([n for n in nodes if n != tail])
            arcs.append(
                Arc(
                    f"a{j}",
                    tail,
                    head,
                    rng.choice(_RANDOM_CAPACITIES),
                    rng.randint(0, tau_max),
                )
            )
        network = Network(nodes, tuple(arcs))

        commodities: list[Commodity] = []
        placed = True
        for _ in range(rng.randint(1, commodity_max)):
            for _attempt in range(_RESAMPLE_BUDGET):
                source = rng.choice(nodes)
                targets = sorted(reachable_nodes(network, source) - {source})
                if targets:
                    commodities.append(
                        Commodity(source, rng.choice(targets), rng.choice(_RANDOM_DEMANDS))
                    )
                    break
            else:
                placed = False
                break
        if not placed:
            continue

        instance = Instance(network, tuple(commodities))
        if validate_instance(instance).ok:
            return instance
    raise RuntimeError(
        f"could not generate a valid instance for seed {seed} within the resample budget"
    )
