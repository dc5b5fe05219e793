"""LP transcription, the exact phase-1 simplex, column generation over
paths, and the horizon searches."""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmcflow
from qmcflow import checker, cli, core, solver
from qmcflow.checker import check_cut, check_flow
from qmcflow.core import (
    Arc,
    Commodity,
    FlowOverTime,
    Instance,
    Network,
    Piece,
    StepFunction,
    StorageMode,
    serialize_flow,
    serialize_instance,
)
from qmcflow.expansion import (
    ExpandedNetwork,
    build_time_expanded,
    cheapest_path,
    route_departures,
)
from qmcflow.instances import (
    CycleParams,
    cycle_instance,
    random_instance,
    wait_schedule_with_storage,
    wave_schedule_no_storage,
)
from qmcflow.solver import (
    NoHorizonFound,
    SpeedupReport,
    Verdict,
    gap_csv,
    gap_sweep,
    min_feasible_horizon,
    probe_horizon,
    speedup_ratio,
)

from helpers import (
    ONE_DEFECT_CASES,
    SEPARATING_CYCLES,
    Constraint,
    LinearProgram,
    assignment_from_flow,
    flow_satisfies_unreduced_lp,
    fourier_motzkin_feasible,
    lp_feasible,
    one_defect_instance,
    path_master_lp,
    reference_distance,
    satisfies_unreduced_lp,
    transit_distances,
    unreduced_columns,
    unreduced_lp,
)

WITH = StorageMode.WITH_STORAGE
WITHOUT = StorageMode.NO_INTERMEDIATE_STORAGE
F = Fraction


def row(coeffs: dict[int, int | str], relation: str, rhs: int | str) -> Constraint:
    return Constraint({j: F(v) for j, v in coeffs.items()}, relation, F(rhs))


def horizons_into(probes: list[int]):
    """An observer that appends each probe's horizon to probes."""
    return lambda expansion, _: probes.append(expansion.horizon)


def single_arc_instance() -> Instance:
    network = Network(("v0", "v1"), (Arc("a0", "v0", "v1", F(1), 1),))
    return Instance(network, (Commodity("v0", "v1", F(1)),))


def closed_path_instance(blocked_demand: int | str) -> Instance:
    """Commodity 0 ships u -> t over an open arc; commodity 1 ships
    s -> t, and its only path crosses the zero-capacity arc a0."""
    network = Network(
        ("s", "m", "t", "u"),
        (
            Arc("a0", "s", "m", F(0), 1),
            Arc("a1", "m", "t", F(1), 1),
            Arc("a2", "u", "t", F(1), 1),
        ),
    )
    commodities = (Commodity("u", "t", F(1)), Commodity("s", "t", F(blocked_demand)))
    return Instance(network, commodities)


def parallel_arcs_instance(demand: int) -> Instance:
    """One commodity s -> t over two parallel arcs of capacity 1: fast,
    of transit 1, its fewest-transit route, and slow, of transit 2. The
    route witness sends everything over fast and ends at demand + 1, but
    by T the two arcs carry (T - 1) + (T - 2), so from demand 3 on the
    minimum, ceil((demand + 3) / 2) in both modes, lies below it: a
    search on this instance must probe to find it."""
    network = Network(
        ("s", "t"), (Arc("fast", "s", "t", F(1), 1), Arc("slow", "s", "t", F(1), 2))
    )
    return Instance(network, (Commodity("s", "t", F(demand)),))


# Coefficients and right-hand sides of the small general LPs: mixed
# signs and denominators, unlike the +-1 rows of a time expansion.
LP_VALUES = [F(v) for v in ("-3", "-2", "-1", "-1/2", "0", "1/3", "1/2", "1", "3/2", "2", "3")]


@st.composite
def small_lps(draw) -> LinearProgram:
    num_vars = draw(st.integers(min_value=1, max_value=4))
    constraint = st.builds(
        Constraint,
        st.dictionaries(
            st.integers(min_value=0, max_value=num_vars - 1), st.sampled_from(LP_VALUES)
        ),
        st.sampled_from(("<=", "=")),
        st.sampled_from(LP_VALUES),
    )
    return LinearProgram(num_vars, tuple(draw(st.lists(constraint, min_size=1, max_size=5))))


class TestLinearProgramTypes:
    def test_bad_relation_rejected(self):
        with pytest.raises(ValueError, match="relation"):
            Constraint({0: F(1)}, "<", F(1))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            LinearProgram(1, (row({1: 1}, "<=", 1),))

    def test_check_assignment_length(self):
        lp = LinearProgram(2, (row({0: 1}, "<=", 1),))
        with pytest.raises(ValueError, match="expected 2"):
            lp.check_assignment([F(0)])

    def test_check_assignment_rejects_negative_values(self):
        lp = LinearProgram(1, ())
        assert not lp.check_assignment([F(-1)])


class TestLPFeasible:
    def test_conflicting_bound_and_equality(self):
        lp = LinearProgram(1, (row({0: 1}, "<=", 1), row({0: 1}, "=", 2)))
        assert not lp_feasible(lp).feasible

    def test_simple_feasible_region(self):
        lp = LinearProgram(2, (row({0: 1, 1: 1}, "<=", 1), row({0: 1}, "=", "1/2")))
        result = lp_feasible(lp)
        assert result.feasible
        assert result.assignment[0] == F(1, 2)
        assert result.assignment[1] <= F(1, 2)
        assert lp.check_assignment(result.assignment)

    def test_no_constraints_yields_zero(self):
        result = lp_feasible(LinearProgram(3, ()))
        assert result.feasible
        assert result.assignment == (F(0), F(0), F(0))

    def test_negative_upper_bound_is_infeasible(self):
        lp = LinearProgram(1, (row({0: 1}, "<=", -1),))
        assert not lp_feasible(lp).feasible

    def test_negative_rhs_rows_are_normalized(self):
        # -x <= -2 says x >= 2; an artificial is needed and eliminated.
        lp = LinearProgram(1, (row({0: -1}, "<=", -2),))
        result = lp_feasible(lp)
        assert result.feasible
        assert result.assignment[0] >= 2

    def test_negative_rhs_equality(self):
        lp = LinearProgram(1, (row({0: -1}, "=", -3),))
        result = lp_feasible(lp)
        assert result.feasible
        assert result.assignment == (F(3),)

    def test_zero_row_tautology(self):
        lp = LinearProgram(1, (row({}, "=", 0), row({0: 1}, "<=", 5)))
        assert lp_feasible(lp).feasible

    def test_zero_row_contradiction(self):
        lp = LinearProgram(1, (row({}, "=", 1),))
        assert not lp_feasible(lp).feasible

    def test_redundant_rows(self):
        lp = LinearProgram(
            2,
            (
                row({0: 1, 1: 1}, "=", 1),
                row({0: 1, 1: 1}, "=", 1),
                row({0: 1}, "<=", 1),
            ),
        )
        result = lp_feasible(lp)
        assert result.feasible
        assert lp.check_assignment(result.assignment)

    def test_equalities_forcing_fractional_values(self):
        lp = LinearProgram(
            2,
            (
                row({0: 2, 1: 3}, "=", 4),
                row({0: 1, 1: "-1"}, "=", "1/3"),
            ),
        )
        result = lp_feasible(lp)
        assert result.feasible
        assert result.assignment[0] * 2 + result.assignment[1] * 3 == 4
        assert result.assignment[0] - result.assignment[1] == F(1, 3)

    def test_deterministic_assignments(self):
        lp = LinearProgram(
            3,
            (
                row({0: 1, 1: 1, 2: 1}, "=", 2),
                row({0: 1, 1: 2}, "<=", 3),
            ),
        )
        assert lp_feasible(lp) == lp_feasible(lp)

    # Rows with different denominators build the phase-one objective
    # from differently scaled rows; the examples are one infeasible and
    # one feasible LP of that kind. Tiny LPs are cheap, and a wrong
    # verdict may hit one in a few hundred, so this property draws more
    # examples than the default.
    @example(LinearProgram(2, (row({0: "1/2", 1: "1/3"}, "=", 1), row({0: 3, 1: 2}, "<=", 5))))
    @example(LinearProgram(2, (row({0: "1/2", 1: "1/3"}, "=", 1), row({0: 3, 1: 2}, "<=", 6))))
    @settings(max_examples=500)
    @given(small_lps())
    def test_verdicts_match_fourier_motzkin(self, lp: LinearProgram):
        assert lp_feasible(lp).feasible == fourier_motzkin_feasible(lp)

    def test_reference_is_independent_of_the_package_simplex(self, monkeypatch):
        # The reference decides the k=3 cycle's node-arc LPs with the
        # package's simplex broken, and the general LP is not in the
        # package.
        def broken(*args):
            raise RuntimeError("the package simplex was called")

        monkeypatch.setattr(solver, "_pivot_exact", broken)
        monkeypatch.setattr(solver, "_run_phase_one", broken)
        for horizon, mode, feasible in ((4, WITH, True), (3, WITH, False), (4, WITHOUT, False)):
            expansion = build_time_expanded(cycle_instance(3), horizon, mode)
            assert lp_feasible(unreduced_lp(expansion)).feasible == feasible, (horizon, mode)
        for name in ("Constraint", "LinearProgram", "lp_feasible", "LESS_EQUAL", "EQUAL"):
            assert not hasattr(qmcflow, name) and not hasattr(solver, name), name

    def test_fourier_motzkin_reference(self):
        # x/2 + y/3 = 1 is 3x + 2y = 6, so 3x + 2y <= 5 cannot hold and
        # 3x + 2y <= 6 can.
        def lp(bound: int) -> LinearProgram:
            return LinearProgram(
                2, (row({0: "1/2", 1: "1/3"}, "=", 1), row({0: 3, 1: 2}, "<=", bound))
            )

        assert not fourier_motzkin_feasible(lp(5))
        assert fourier_motzkin_feasible(lp(6))
        assert not fourier_motzkin_feasible(LinearProgram(1, (row({0: 1}, "<=", -1),)))


def fresh_master_lp(
    master: solver._PathMaster,
) -> tuple[LinearProgram, list[tuple[str, int]]]:
    """A path master that no pivot has touched, read back from its
    tableau: its rows as an LP over its paths, and the copies of its
    capacity rows in row order. A row holding its slack is a <= row."""
    constraints = []
    for r, (entries, den) in enumerate(zip(master.rows, master.dens)):
        coeffs = {j: F(v, den) for j, v in entries.items() if 0 <= j < solver._SLACK}
        relation = "<=" if solver._SLACK + r in entries else "="
        constraints.append(Constraint(coeffs, relation, F(entries.get(solver._RHS, 0), den)))
    copies = sorted(master.row_of, key=master.row_of.get)
    return LinearProgram(len(master.paths), tuple(constraints)), copies


def departures_and_cheapest_paths(expansion, demanded: list[int]) -> list[tuple[int, tuple]]:
    """Each demanded commodity's route departures, then one cheapest
    path per commodity, which may wait, under lengths that price every
    route copy."""
    paths = [(i, path) for i in demanded for path in route_departures(expansion, i)]
    lengths = {copy: 1 for _, path in paths for copy in path}
    for i in demanded:
        cheapest = cheapest_path(expansion, i, lengths)
        if cheapest is not None and (i, cheapest[1]) not in paths:
            paths.append((i, cheapest[1]))
    return paths


def master_built_by_add(
    expansion, demanded: list[int], paths: list[tuple[int, tuple]]
) -> solver._PathMaster:
    """The first master over the paths as add's B^-1 A_p rule builds it:
    the capacity rows of their copies in sorted order, then the demand
    rows, each with its slack or artificial basic, and then every path
    appended by add."""
    master = solver._PathMaster(expansion, [], [])
    master._add_capacity_rows({copy for _, path in paths for copy in path})
    for i in demanded:
        master.demand_row[i] = len(master.rows)
        demand = expansion.instance.commodities[i].demand
        master.add_row(demand.denominator, demand.numerator, False)
    for i, path in paths:
        master.add(i, path)
    return master


class TestTranscription:
    """The path master's rows, and witnesses read against the unreduced
    node-arc LP."""

    def test_row_and_column_counts(self):
        # The k=3 cycle at T=4 with storage. The unreduced LP has all 27
        # (movement copy, commodity) and 36 (holdover arc, commodity)
        # pairs as columns, 9 capacity rows and 45 (commodity, node copy)
        # balance rows.
        expansion = build_time_expanded(cycle_instance(3), 4, WITH)
        full = unreduced_lp(expansion)
        assert (full.num_vars, len(full.constraints)) == (27 + 36, 9 + 45)
        relations = [c.relation for c in full.constraints]
        assert (relations.count("<="), relations.count("=")) == (9, 45)

    def test_capacity_rows_come_first(self):
        expansion = build_time_expanded(cycle_instance(3), 4, WITH)
        paths = [(i, path) for i in range(3) for path in route_departures(expansion, i)]
        lp, copies = fresh_master_lp(solver._PathMaster(expansion, [0, 1, 2], paths))
        assert len(lp.constraints) == len(copies) + 3
        assert all(c.relation == "<=" for c in lp.constraints[: len(copies)])
        assert all(c.relation == "=" for c in lp.constraints[len(copies) :])

    @pytest.mark.parametrize("mode", [WITH, WITHOUT])
    def test_single_arc_rows(self, mode: StorageMode):
        # Columns: a0@0, then the holdovers at v0 and v1 (both nodes are
        # the commodity's endpoints, so both modes agree). The path
        # master has the one path a0@0, its capacity row and the demand
        # row.
        expansion = build_time_expanded(single_arc_instance(), 2, mode)
        assert unreduced_columns(expansion) == [
            ("move", "a0", 0, 0),
            ("hold", "v0", 0, 0),
            ("hold", "v0", 1, 0),
            ("hold", "v1", 0, 0),
            ("hold", "v1", 1, 0),
        ]
        paths = [(0, path) for path in route_departures(expansion, 0)]
        assert paths == [(0, (("a0", 0),))]
        lp, copies = fresh_master_lp(solver._PathMaster(expansion, [0], paths))
        assert copies == [("a0", 0)]
        assert lp.num_vars == 1
        assert lp.constraints == (row({0: 1}, "<=", 1), row({0: 1}, "=", 1))

    @given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=1, max_value=8))
    def test_rows_are_the_incidence_of_the_copies(self, seed: int, horizon: int):
        instance = random_instance(seed, 5, 8, 3, 3)
        arcs = instance.network.arc_by_id
        demanded = [i for i, goods in enumerate(instance.commodities) if goods.demand > 0]
        for mode in (WITH, WITHOUT):
            expansion = build_time_expanded(instance, horizon, mode)
            paths = departures_and_cheapest_paths(expansion, demanded)
            lp, copies = fresh_master_lp(solver._PathMaster(expansion, demanded, paths))
            assert lp.num_vars == len(paths)
            assert (lp, copies) == path_master_lp(expansion, paths)

            # One capacity row per movement copy some path uses, in
            # sorted order, holding exactly the paths through that copy.
            assert copies == sorted({copy for _, path in paths for copy in path})
            for copy, constraint in zip(copies, lp.constraints):
                through = {j for j, (_, path) in enumerate(paths) if copy in path}
                assert constraint.coeffs == dict.fromkeys(through, 1)
                assert (constraint.relation, constraint.rhs) == ("<=", arcs[copy[0]].capacity)

            # Then one demand row per commodity with positive demand,
            # holding exactly its paths.
            demand_rows = lp.constraints[len(copies) :]
            assert len(demand_rows) == len(demanded)
            for i, constraint in zip(demanded, demand_rows):
                own = {j for j, (commodity, _) in enumerate(paths) if commodity == i}
                assert constraint.coeffs == dict.fromkeys(own, 1)
                assert (constraint.relation, constraint.rhs) == ("=", instance.commodities[i].demand)

    @given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=1, max_value=8))
    def test_first_master_is_the_tableau_add_builds(self, seed: int, horizon: int):
        # The first master writes its columns as A_p. At its basis, where
        # every slack and artificial is basic, that must be exactly the
        # tableau add's B^-1 A_p rule builds for the same paths.
        instance = random_instance(seed, 5, 8, 3, 3)
        demanded = [i for i, goods in enumerate(instance.commodities) if goods.demand > 0]
        for mode in (WITH, WITHOUT):
            expansion = build_time_expanded(instance, horizon, mode)
            paths = departures_and_cheapest_paths(expansion, demanded)
            direct = solver._PathMaster(expansion, demanded, paths)
            built = master_built_by_add(expansion, demanded, paths)
            for name in ("rows", "dens", "basis", "rows_of", "objective", "objective_den"):
                assert getattr(direct, name) == getattr(built, name), (mode, name)
            for name in ("paths", "row_of", "demand_row"):
                assert getattr(direct, name) == getattr(built, name), (mode, name)

    def test_single_commodity_single_arc_unique_support(self):
        expansion, result = probe_horizon(single_arc_instance(), 2, WITH)
        assert result.feasible
        # One movement copy (a0 at theta 0) and the sink holdover at
        # theta 1 must each carry the full unit; everything else is 0.
        names = [key[1:] for key in unreduced_columns(expansion)]
        values = assignment_from_flow(expansion, result.flow)
        support = {names[j] for j, value in enumerate(values) if value != 0}
        assert support == {("a0", 0, 0), ("v1", 1, 0)}
        assert satisfies_unreduced_lp(expansion, values)

    def test_cycle3_infeasible_at_three_without_storage(self):
        expansion, result = probe_horizon(cycle_instance(3), 3, WITHOUT)
        assert not result.feasible
        assert not full_verdict(expansion)

    def test_cycle3_feasible_at_four_with_storage(self):
        expansion, result = probe_horizon(cycle_instance(3), 4, WITH)
        assert result.feasible
        assert flow_satisfies_unreduced_lp(expansion, result.flow)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_wait_schedule_satisfies_the_lp(self, k: int):
        expansion = build_time_expanded(cycle_instance(k), k + 1, WITH)
        values = assignment_from_flow(expansion, wait_schedule_with_storage(k))
        assert satisfies_unreduced_lp(expansion, values)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_wave_schedule_satisfies_the_strict_lp(self, k: int):
        expansion = build_time_expanded(cycle_instance(k), 2 * k - 1, WITHOUT)
        values = assignment_from_flow(expansion, wave_schedule_no_storage(k))
        assert satisfies_unreduced_lp(expansion, values)

    def test_wait_schedule_violates_the_strict_lp_at_k_plus_one(self):
        # The waiting trick needs storage at v0: with no-storage masks
        # horizon k+1 is infeasible, and the wait schedule, which has no
        # holdover variable for its storage at v0, breaks a balance row.
        expansion, result = probe_horizon(cycle_instance(4), 5, WITHOUT)
        assert not result.feasible
        assert not full_verdict(expansion)
        values = assignment_from_flow(expansion, wait_schedule_with_storage(4))
        assert not satisfies_unreduced_lp(expansion, values)


class TestHorizonSearch:
    def test_cycle4_with_storage(self):
        assert min_feasible_horizon(cycle_instance(4), WITH, 20)[0] == 5

    def test_cycle4_without_storage(self):
        assert min_feasible_horizon(cycle_instance(4), WITHOUT, 20)[0] == 7

    def test_cycle5_with_unit_demand(self):
        instance = cycle_instance(CycleParams(5, F(1)))
        assert min_feasible_horizon(instance, WITHOUT, 20)[0] == 5

    def test_bound_too_small_raises(self):
        with pytest.raises(NoHorizonFound):
            min_feasible_horizon(cycle_instance(4), WITHOUT, 6)

    def test_bound_below_lower_bound_raises(self):
        # The k=4 cycle's transit bound is L = 4, so every horizon up to
        # t_max = 2 is infeasible without a probe.
        probes: list[int] = []
        with pytest.raises(NoHorizonFound, match="every horizon below 4 infeasible"):
            min_feasible_horizon(cycle_instance(4), WITH, 2, observer=horizons_into(probes))
        assert probes == []

    def test_invalid_instance_rejected(self):
        network = Network(("v0", "v1"), (Arc("a0", "v0", "v1", F(1), 1),))
        bad = Instance(network, (Commodity("v1", "v0", F(1)),))
        with pytest.raises(ValueError, match="invalid instance"):
            min_feasible_horizon(bad, WITH, 10)

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError, match="t_max"):
            min_feasible_horizon(cycle_instance(3), WITH, 0)

    # The one-arc instance's bracket [2, 2] is closed, so its searches
    # make no probe that could check their arguments.
    @pytest.mark.parametrize("capacity", [1, 0])
    @pytest.mark.parametrize("mode", ["bogus", None, "no-storage"])
    def test_search_rejects_a_mode_that_is_not_a_storage_mode(self, mode, capacity):
        network = Network(("v0", "v1"), (Arc("a0", "v0", "v1", F(capacity), 1),))
        instance = Instance(network, (Commodity("v0", "v1", F(1)),))
        with pytest.raises(ValueError, match="mode must be a StorageMode"):
            min_feasible_horizon(instance, mode, 10)

    @pytest.mark.parametrize("t_max", [True, "5", 2.5, 10.0, F(10), 0])
    @pytest.mark.parametrize(
        "search",
        [lambda instance, t_max: min_feasible_horizon(instance, WITH, t_max), speedup_ratio],
        ids=["min_feasible_horizon", "speedup_ratio"],
    )
    def test_search_rejects_a_t_max_that_is_not_a_positive_integer(self, search, t_max):
        with pytest.raises(ValueError, match="t_max must be an integer of at least 1"):
            search(single_arc_instance(), t_max)

    def test_zero_demand_commodity_does_not_raise_the_lower_bound(self):
        # Commodity 0 ships 4 over v0 -> v1 as in parallel_arcs_instance:
        # transit bound 2, minimum 4, route witness ending at 5.
        network = Network(
            ("v0", "v1", "v2"),
            (
                Arc("a0", "v0", "v1", F(1), 1),
                Arc("slow", "v0", "v1", F(1), 2),
                Arc("a1", "v1", "v2", F(1), 5),
            ),
        )
        instance = Instance(
            network,
            (Commodity("v0", "v1", F(4)), Commodity("v1", "v2", F(0))),
        )
        probes: list[int] = []
        minimum, _ = min_feasible_horizon(instance, WITH, 10, observer=horizons_into(probes))
        assert minimum == 4
        # The empty commodity's transit of 5 must not inflate the start
        # of the search past the only demand that matters: its transit
        # of 1 plus the step a movement copy needs to arrive by T - 1.
        assert probes[0] == 2

    def test_observer_sees_every_probe(self):
        # A feasible probe settles every horizon its witness has fully
        # arrived by, and so does the route witness, so the minimum is the
        # least last arrival among those witnesses (piece end plus
        # transit), and every infeasible probe lies below it. Without
        # storage the k=3 cycle's route witness arrives by 5 and settles
        # the minimum; with demand 5 over parallel arcs the probe of 5
        # finds a witness that arrives by 5 and the probe of 4 one that
        # arrives by 4, below the route witness's 6.
        cases = [
            (cycle_instance(3), WITH, 4),
            (cycle_instance(3), WITHOUT, 5),
            (parallel_arcs_instance(5), WITH, 4),
            (parallel_arcs_instance(5), WITHOUT, 4),
        ]
        for instance, mode, expected in cases:
            transit = {arc.id: arc.transit for arc in instance.network.arcs}

            def arrival(flow):
                return max(
                    step.pieces[-1].end + transit[arc_id]
                    for (arc_id, _), step in flow.rates.items()
                )

            _, route = solver._bracket(instance, mode, 20)
            arrivals: list[Fraction] = [arrival(route)]
            infeasible: list[int] = []

            def observer(expansion, result):
                if result.feasible:
                    arrivals.append(arrival(result.flow))
                else:
                    infeasible.append(expansion.horizon)

            minimum, _ = min_feasible_horizon(instance, mode, 20, observer=observer)
            assert minimum == expected == min(arrivals), mode
            assert all(t < minimum for t in infeasible), mode
        assert arrivals == [6, 5, 4]

    def test_no_horizon_is_probed_twice(self):
        def search(instance, mode, t_max):
            probes: list[tuple[int, bool]] = []
            minimum, flow = min_feasible_horizon(
                instance,
                mode,
                t_max,
                observer=lambda expansion, v: probes.append((expansion.horizon, v.feasible)),
            )
            # The returned flow is the certified witness of the minimum.
            assert flow.horizon == minimum
            assert check_flow(flow, instance, mode).ok
            return minimum, probes

        instances = [random_instance(seed, 5, 8, 3, 3) for seed in range(1, 21)]
        instances += [cycle_instance(k) for k in range(3, 6)]
        for instance in instances:
            for mode in (WITH, WITHOUT):
                minimum, generous = search(instance, mode, 40)
                tight_minimum, tight = search(instance, mode, minimum + 1)
                assert tight_minimum == minimum
                for probes in (generous, tight):
                    horizons = [t for t, _ in probes]
                    assert len(horizons) == len(set(horizons))
                    assert all(t < minimum for t, ok in probes if not ok)
                    assert all(t >= minimum for t, ok in probes if ok)

    @pytest.mark.parametrize("target", ["_master_values", "flow_from_paths"])
    @pytest.mark.parametrize("mode, horizon", [(WITH, 4), (WITHOUT, 5)])
    def test_witness_rejected_by_check_flow_raises_in_the_probe(
        self, monkeypatch, target, mode, horizon
    ):
        # Each corruption comes after the master's values passed their
        # own check: every path value plus one, or every value doubled
        # on its way into the witness. Only check_flow in the probe can
        # catch it.
        real = getattr(solver, target)
        if target == "_master_values":
            monkeypatch.setattr(solver, target, lambda master: [v + 1 for v in real(master)])
        else:
            monkeypatch.setattr(
                solver, target, lambda e, paths, values: real(e, paths, [2 * v for v in values])
            )
        with pytest.raises(RuntimeError, match=f"^the witness at T={horizon} fails check_flow: "):
            probe_horizon(cycle_instance(3), horizon, mode)

    @pytest.mark.parametrize(
        "search",
        [
            lambda instance: min_feasible_horizon(instance, WITH, 12),
            lambda instance: speedup_ratio(instance, 12),
        ],
        ids=["min_feasible_horizon", "speedup_ratio"],
    )
    def test_corrupted_route_witness_raises_before_any_probe(self, monkeypatch, search):
        # The route witness is checked by check_flow before any search
        # relies on it. The patched route_witness doubles every rate of
        # the real one, so both searches must fail before their first
        # probe.
        build = solver.route_witness

        def doubled(instance, routes):
            flow = build(instance, routes)
            rates = {
                key: replace(step, pieces=tuple(replace(p, rate=2 * p.rate) for p in step.pieces))
                for key, step in flow.rates.items()
            }
            return replace(flow, rates=rates)

        monkeypatch.setattr(solver, "route_witness", doubled)
        monkeypatch.setattr(solver, "probe_horizon", lambda *args: pytest.fail("probed"))
        with pytest.raises(RuntimeError, match="^the route witness ending at 5 fails check_flow: "):
            search(cycle_instance(3))

    def test_only_the_probe_calls_a_checker(self, monkeypatch):
        # Each verdict is certified in its probe: check_flow once per
        # feasible probe, by the path LP that found the witness, and
        # check_cut once per infeasible one, on a time-slice cut or the
        # path LP's lengths alike. Outside the probe, only _bracket calls
        # check_flow, once per instance, on the route witness; no
        # function of the horizon search calls either checker.
        calls: list[tuple[str, str]] = []

        def spy(name):
            checker_function = getattr(solver, name)

            def spied(*args):
                calls.append((name, sys._getframe(1).f_code.co_name))
                return checker_function(*args)

            monkeypatch.setattr(solver, name, spied)

        spy("check_flow")
        spy("check_cut")
        verdicts: list[bool] = []
        gap_sweep(3, 8, observer=lambda _, verdict: verdicts.append(verdict.feasible))
        assert calls.count(("check_flow", "_decide_by_paths")) == verdicts.count(True) == 6
        assert calls.count(("check_flow", "_bracket")) == 6
        assert calls.count(("check_cut", "_certified_cut")) == verdicts.count(False) == 12
        assert len(calls) == 24

    def test_master_values_compare_over_the_lcm_of_row_denominators(self):
        # One commodity of demand 5/6 and two departures over an arc of
        # capacity 1/2 per step: both paths must carry flow, so both are
        # basic. Their values are then set by hand over different row
        # denominators, which the checks must bring to a common one.
        network = Network(("v0", "v1"), (Arc("a0", "v0", "v1", F(1, 2), 1),))
        instance = Instance(network, (Commodity("v0", "v1", F(5, 6)),))
        expansion = build_time_expanded(instance, 3, WITH)
        cases = [
            ((F(1, 2), F(1, 3)), None),
            ((F(1, 3), F(1, 2)), None),
            ((F(2, 3), F(1, 6)), "overloads copy"),
            ((F(1, 2), F(1, 2)), "misses the demand of commodity 0"),
            ((F(-1, 6), F(1, 1)), "negative value"),
        ]
        for values, error in cases:
            paths = [(0, path) for path in route_departures(expansion, 0)]
            master = solver._PathMaster(expansion, [0], paths)
            assert len(paths) == 2 and solver._run_phase_one(master)
            for j, value in enumerate(values):
                r = master.basis.index(j)
                master.rows[r][solver._RHS] = value.numerator
                master.dens[r] = value.denominator
            if error is None:
                assert solver._master_values(master) == list(values)
            else:
                with pytest.raises(RuntimeError, match=error):
                    solver._master_values(master)

    def test_improving_column_with_no_positive_entry_raises(self):
        # The one path of the single-arc instance enters phase one; with
        # its entries negated, no row blocks it.
        expansion = build_time_expanded(single_arc_instance(), 2, WITH)
        master = solver._PathMaster(expansion, [0], [(0, (("a0", 0),))])
        for r in master.rows_of[0]:
            master.rows[r][0] = -master.rows[r][0]
        with pytest.raises(RuntimeError, match="phase-one ratio test found no pivot row"):
            solver._run_phase_one(master)

    def test_priced_column_the_master_has_raises(self, monkeypatch):
        # The rebound pricing offers a route departure, which the first
        # master holds, at a length below every dual.
        monkeypatch.setattr(
            solver, "cheapest_path", lambda expansion, i, _: (-1, route_departures(expansion, i)[0])
        )
        with pytest.raises(RuntimeError, match="pricing returned a column the master already has"):
            probe_horizon(cycle_instance(3), 4, WITH)

    @example(seed=None)
    @given(st.one_of(st.none(), st.integers(min_value=1, max_value=10_000)))
    def test_monotone_feasibility_on_cycle3(self, seed: int | None):
        # seed None stands for the k=3 cycle, any other for a random instance.
        instance = cycle_instance(3) if seed is None else random_instance(seed, 5, 8, 3, 3)
        for mode in (WITH, WITHOUT):
            verdicts = [probe_horizon(instance, t, mode)[1].feasible for t in range(1, 11)]
            assert verdicts == sorted(verdicts), mode

    def test_mode_dominance_at_the_no_storage_minimum(self):
        instance = cycle_instance(3)
        assert probe_horizon(instance, 5, WITHOUT)[1].feasible
        assert probe_horizon(instance, 5, WITH)[1].feasible

    def test_never_feasible_instance_fails_before_any_probe(self):
        instance = closed_path_instance(1)
        for mode in (WITH, WITHOUT):
            probes: list[int] = []
            with pytest.raises(NoHorizonFound, match="commodity 1 has no path"):
                min_feasible_horizon(instance, mode, 4000, observer=horizons_into(probes))
            assert probes == []

    def test_probe_of_a_commodity_with_no_open_route(self, monkeypatch):
        # s -> m is closed, so route_departures seeds no column and
        # pricing alone refutes the probe: below T = 3 there is no path
        # at all and the cut is empty; from T = 3 on each departure's
        # path crosses a copy of a0, which gets length 1.
        network = Network(
            ("s", "m", "t"), (Arc("a0", "s", "m", F(0), 1), Arc("a1", "m", "t", F(1), 1))
        )
        instance = Instance(network, (Commodity("s", "t", F(1)),))
        cuts: list[dict] = []
        check = solver.check_cut

        def recorded(horizon, lengths, instance, mode):
            cuts.append(dict(lengths))
            return check(horizon, lengths, instance, mode)

        monkeypatch.setattr(solver, "check_cut", recorded)
        expected = {2: {}, 3: {("a0", 0): 1}, 6: {("a0", theta): 1 for theta in range(4)}}
        for mode in (WITH, WITHOUT):
            for horizon, lengths in expected.items():
                cuts.clear()
                expansion, result = probe_horizon(instance, horizon, mode)
                assert route_departures(expansion, 0) == []
                assert not result.feasible
                assert cuts == [lengths] == [result.cut], (mode, horizon)

    def test_zero_demand_commodity_behind_a_closed_arc_still_searches(self):
        # The search skips the empty commodity: its transit bound and its
        # route witness come from commodity 0 alone, and both say 2, so
        # the minimum needs no probe. The probe of 2 agrees.
        instance = closed_path_instance(0)
        for mode in (WITH, WITHOUT):
            probes: list[int] = []
            minimum, flow = min_feasible_horizon(
                instance, mode, 10, observer=horizons_into(probes)
            )
            assert (minimum, probes) == (2, []), mode
            assert sorted(flow.rates) == [("a2", 0)], mode
            assert probe_horizon(instance, 2, mode)[1].feasible, mode

    def test_lower_bound_counts_only_open_arcs(self):
        # The closed arc's transit of 1 would start the search at T=2;
        # only the open arc's transit of 3 bounds it, so T=4 is probed
        # first. Demand 2 needs two departures, so the minimum is 5,
        # where the route witness ends.
        network = Network(
            ("s", "t"),
            (Arc("shut", "s", "t", F(0), 1), Arc("open", "s", "t", F(1), 3)),
        )
        instance = Instance(network, (Commodity("s", "t", F(2)),))
        for mode in (WITH, WITHOUT):
            probes: list[int] = []
            minimum, _ = min_feasible_horizon(instance, mode, 10, observer=horizons_into(probes))
            assert (minimum, probes) == (5, [4]), mode

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=1, max_value=10_000),
        shut=st.sets(st.integers(min_value=0, max_value=7)),
        idle=st.sets(st.integers(min_value=0, max_value=2)),
        t_max=st.integers(min_value=1, max_value=12),
    )
    def test_first_probe_is_the_open_arc_transit_bound(self, seed, shut, idle, t_max):
        # Arcs in shut get capacity 0 and commodities in idle demand 0.
        # The first horizon probed is L, the largest reference transit
        # over open arcs plus one among commodities with demand (1 if
        # there are none), in both modes, unless the route witness ends
        # at L and the search returns L unprobed; a demanded commodity
        # with no open path, or L > t_max, fails before any probe. The
        # observer stops each search after its first probe.
        base = random_instance(seed, 5, 8, 3, 3)
        arcs = tuple(
            replace(arc, capacity=F(0)) if j in shut else arc
            for j, arc in enumerate(base.network.arcs)
        )
        commodities = tuple(
            replace(goods, demand=F(0)) if i in idle else goods
            for i, goods in enumerate(base.commodities)
        )
        instance = Instance(Network(base.network.nodes, arcs), commodities)
        open_network = Network(base.network.nodes, tuple(a for a in arcs if a.capacity > 0))
        transits = [
            transit_distances(open_network, goods.source).get(goods.sink)
            for goods in commodities
            if goods.demand > 0
        ]

        class FirstProbe(Exception):
            pass

        for mode in (WITH, WITHOUT):
            probes: list[int] = []

            def observer(expansion, _):
                probes.append(expansion.horizon)
                raise FirstProbe

            if None in transits:
                with pytest.raises(NoHorizonFound, match="over arcs of positive capacity"):
                    min_feasible_horizon(instance, mode, t_max, observer=observer)
                assert probes == [], mode
                continue
            bound = max(transits, default=0) + 1
            if bound > t_max:
                with pytest.raises(NoHorizonFound, match=f"every horizon below {bound} infeasible"):
                    min_feasible_horizon(instance, mode, t_max, observer=observer)
                assert probes == [], mode
            else:
                _, route = solver._bracket(instance, mode, t_max)
                try:
                    minimum, flow = min_feasible_horizon(instance, mode, t_max, observer=observer)
                except FirstProbe:
                    assert probes == [bound] and route.horizon > bound, mode
                else:
                    assert (minimum, flow, probes) == (bound, route, []), mode

    def test_sweep_pivot_counts(self, monkeypatch):
        # The pivot rules are deterministic, so the pivots each search
        # makes are fixed; a change of entering rule or of the ratio
        # test's lexicographic tie-break shows here. They are the path
        # masters' pivots, summed over each probe's column generation,
        # which resumes phase one from the last basis after each
        # pricing round. Time-slice cuts settle the cut probes with no
        # LP: with storage the probe of k, and without storage the
        # search's one probe, at 2k - 2, below the route witness's
        # 2k - 1. So only the with-storage probe of k + 1 pivots.
        pivots: dict[tuple[int, StorageMode], int] = {}
        pending = [0]
        pivot = solver._pivot_exact

        def counted(*args):
            pending[0] += 1
            return pivot(*args)

        def record(expansion, _):
            key = (len(expansion.instance.network.nodes), expansion.mode)
            pivots[key] = pivots.get(key, 0) + pending[0]
            pending[0] = 0

        monkeypatch.setattr(solver, "_pivot_exact", counted)
        gap_sweep(3, 6, observer=record)
        assert pivots == {
            (3, WITH): 9,
            (3, WITHOUT): 0,
            (4, WITH): 13,
            (4, WITHOUT): 0,
            (5, WITH): 17,
            (5, WITHOUT): 0,
            (6, WITH): 21,
            (6, WITHOUT): 0,
        }

    @pytest.mark.parametrize(
        "mode, horizon, feasible, counts",
        [
            (WITH, 17, True, (132, 101, 100, 131)),
            (WITH, 16, False, (16, 1, 1, 16)),
            (WITHOUT, 30, False, (37, 1, 1, 16)),
            (WITHOUT, 32, True, (31, 1, 0, 0)),
        ],
        ids=["with-storage-17", "with-storage-16", "no-storage-30", "no-storage-32"],
    )
    def test_probe_counters(self, monkeypatch, mode, horizon, feasible, counts):
        # Pivots, runs of phase one, pricing rounds (one reading of the
        # duals each) and pricing calls of the path LP on single
        # horizons of the k=16 cycle, two of which a time-slice cut
        # settles in a probe. They do not depend on timing, so a change
        # that moves any of them changes the path the column generation
        # takes.
        names = ("_pivot_exact", "_run_phase_one", "_master_duals", "cheapest_path")
        tally = dict.fromkeys(names, 0)
        for name in tally:
            original = getattr(solver, name)

            def counted(*args, name=name, original=original):
                tally[name] += 1
                return original(*args)

            monkeypatch.setattr(solver, name, counted)
        result = solver._decide_by_paths(build_time_expanded(cycle_instance(16), horizon, mode))
        assert result.feasible == feasible
        assert tuple(tally.values()) == counts

    @pytest.mark.parametrize(
        "case, mode, t_max, digest",
        [
            (8, WITH, 32, "c00f3f8bb3bfd8fc883518d2e1e39c6ccd8a6b83224379d4407ec224548d7f4d"),
            (6, WITHOUT, 24, "b5145515ced7517cc4d717e2fc6b55f327d6b5734aab52848e161a1792a65567"),
            (
                CycleParams(4, F(3)),
                WITHOUT,
                16,
                "c355945e1c493fa7998b790f9a8c4466b8fdfcdb463541cb16c8e6aad7261738",
            ),
        ],
        ids=["cycle8-with-storage", "cycle6-no-storage", "cycle4-d0-3-no-storage"],
    )
    def test_witness_bytes(
        self, case: int | CycleParams, mode: StorageMode, t_max: int, digest: str
    ):
        # A probe's witness is the final master's basic solution, so a
        # change to the simplex that keeps every verdict may still move
        # it. A change that legitimately picks another basic solution
        # re-pins these digests and says so in CHANGES.md. The k=6
        # cycle's no-storage minimum is settled by the route witness, so
        # its digest pins route_witness; with d0 = 3 the k=4 cycle's
        # route witness ends at 8, and the probe of 7 gives the witness.
        _, flow = min_feasible_horizon(cycle_instance(case), mode, t_max)
        assert hashlib.sha256(serialize_flow(flow).encode()).hexdigest() == digest

    def test_cycles_with_storage_probe_the_bound_and_the_minimum(self):
        # The transit bound k is infeasible and k + 1 is the minimum, so
        # the gallop stops at its second probe and nothing is bisected.
        for k in range(3, 9):
            probes: list[int] = []
            minimum, _ = min_feasible_horizon(
                cycle_instance(k), WITH, 4 * k, observer=horizons_into(probes)
            )
            assert (minimum, probes) == (k + 1, [k, k + 1]), k

    def test_no_storage_search_bisects_toward_the_top_below_the_route_witness(self):
        # Where the route witness ends above the top, min(t_max, 2W), it
        # bounds nothing, and the no-storage search bisects toward the
        # top, which it probes last. Nine units over three parallel arcs:
        # the witness takes the first arc and ends at 10, above 2W = 8,
        # so the search probes 6 and bisects down to W = 4. The k=8
        # cycle, under a t_max of 14 below its route witness's 15,
        # probes 11, 13 and 14 and fails.
        network = Network(("s", "t"), tuple(Arc(a, "s", "t", F(1), 1) for a in "abc"))
        instance = Instance(network, (Commodity("s", "t", F(9)),))
        probes: list[tuple[int, bool]] = []

        def record(expansion, verdict):
            if expansion.mode is WITHOUT:
                probes.append((expansion.horizon, verdict.feasible))

        assert solver._bracket(instance, WITHOUT, 40)[1].horizon == 10
        assert speedup_ratio(instance, 40, observer=record) == SpeedupReport(4, 4)
        assert probes == [(6, True), (5, True), (4, True)]
        probes.clear()
        with pytest.raises(NoHorizonFound, match="infeasible at T=14"):
            speedup_ratio(cycle_instance(8), 14, observer=record)
        assert probes == [(11, False), (13, False), (14, False)]

    def test_cycle_speedup_reports_probe_once_without_storage(self):
        # Both searches of speedup_ratio share the route witness, which
        # ends at 2k - 1. With storage the gallop still probes k and
        # k + 1. Without storage the bracket is [k + 1, 2k - 1], and its
        # one probe, at 2k - 2, is infeasible.
        for k in range(3, 21):
            probes: list[tuple[StorageMode, int, bool]] = []
            report = speedup_ratio(
                cycle_instance(k),
                4 * k,
                observer=lambda e, v: probes.append((e.mode, e.horizon, v.feasible)),
            )
            assert report == SpeedupReport(k + 1, 2 * k - 1), k
            assert probes == [
                (WITH, k, False),
                (WITH, k + 1, True),
                (WITHOUT, 2 * k - 2, False),
            ], k

    @settings(max_examples=40, deadline=None)
    @example(case=CycleParams(3))
    @example(case=CycleParams(3, F(3, 2)))
    @example(case=CycleParams(4, F(3, 2)))
    @example(case=CycleParams(4, F(3)))
    @given(st.integers(min_value=1, max_value=10_000))
    def test_search_matches_a_linear_scan(self, case: int | CycleParams):
        # In both modes the galloping search finds the least feasible
        # horizon of a scan from T=1, and the bracketed no-storage search
        # of speedup_ratio agrees with an independent search under the
        # same generous bound. An integer case is the seed of a small
        # random instance; on those storage shortened the horizon for
        # none of seeds 1..200. The examples are cycles whose minima
        # differ: the k=3 cycle (4 and 5) and SEPARATING_CYCLES.
        if isinstance(case, CycleParams):
            instance = cycle_instance(case)
        else:
            instance = random_instance(case, 4, 6, 2, 3)
        t_max = 40
        minima = {}
        for mode in (WITH, WITHOUT):
            scan = next(
                (t for t in range(1, t_max + 1) if probe_horizon(instance, t, mode)[1].feasible),
                None,
            )
            try:
                minima[mode] = min_feasible_horizon(instance, mode, t_max)[0]
            except NoHorizonFound:
                minima[mode] = None
            assert minima[mode] == scan, mode
        if minima[WITH] is None:
            with pytest.raises(NoHorizonFound):
                speedup_ratio(instance, t_max)
        else:
            assert speedup_ratio(instance, t_max) == SpeedupReport(minima[WITH], minima[WITHOUT])

    def test_sweep_probe_order(self):
        probes: dict[tuple[int, StorageMode], list[int]] = {}

        def record(expansion, _):
            key = (len(expansion.instance.network.nodes), expansion.mode)
            probes.setdefault(key, []).append(expansion.horizon)

        gap_sweep(3, 5, observer=record)
        # With storage the search gallops up from the transit bound k
        # and stops at the minimum k + 1, below the route witness's
        # 2k - 1. Without storage the bracket is [k + 1, 2k - 1], closed
        # above by the route witness, so the search probes 2k - 2 and
        # finds it infeasible; 2k - 1 is never probed.
        assert probes == {
            (3, WITH): [3, 4],
            (3, WITHOUT): [4],
            (4, WITH): [4, 5],
            (4, WITHOUT): [6],
            (5, WITH): [5, 6],
            (5, WITHOUT): [8],
        }

    def test_probe_order_digest(self, monkeypatch):
        # Every probe, as (horizon, feasible), of the k=3..8 sweep and of
        # both modes' searches on 60 instances at the random-solve bounds,
        # in the order made. The wrapped probe_horizon records it for any
        # observer signature, so a refactor of the search that keeps the
        # pinned digest probes exactly the same horizons.
        record: list[tuple[int, bool]] = []
        probe = solver.probe_horizon

        def recorded(instance, horizon, mode):
            result = probe(instance, horizon, mode)
            record.append((horizon, result[1].feasible))
            return result

        monkeypatch.setattr(solver, "probe_horizon", recorded)
        gap_sweep(3, 8)
        for seed in range(1, 61):
            for mode in (WITH, WITHOUT):
                min_feasible_horizon(random_instance(seed, 6, 10, 3, 3), mode, 40)
        assert (len(record), [ok for _, ok in record].count(False)) == (60, 42)
        digest = hashlib.sha256(repr(record).encode()).hexdigest()
        assert digest == "6b9cb6d5ca488b1a3f46769857b061945853cbddd49a708c171b968a441c028d"


    @settings(max_examples=40, deadline=None)
    @example(case=CycleParams(3, F(3, 2)))
    @example(case=CycleParams(4, F(3, 2)))
    @example(case=CycleParams(4, F(3)))
    @given(st.integers(min_value=1, max_value=10_000))
    def test_witness_bracket_matches_a_linear_scan(self, case: int | CycleParams):
        # The bracket that feasible probes' witnesses close must not skip
        # the minimum. The reference scans T = 1, 2, ... with
        # probe_horizon alone; the searches of min_feasible_horizon and
        # speedup_ratio must find the same minima, and the returned flow
        # must be a checked schedule for the minimum itself. An integer
        # case seeds a random instance; the examples are
        # SEPARATING_CYCLES.
        if isinstance(case, CycleParams):
            instance = cycle_instance(case)
        else:
            instance = random_instance(case, 5, 8, 3, 3)
        t_max = 40
        scans = {}
        for mode in (WITH, WITHOUT):
            scans[mode] = next(
                (t for t in range(1, t_max + 1) if probe_horizon(instance, t, mode)[1].feasible),
                None,
            )
            if scans[mode] is None:
                with pytest.raises(NoHorizonFound):
                    min_feasible_horizon(instance, mode, t_max)
                continue
            minimum, flow = min_feasible_horizon(instance, mode, t_max)
            assert minimum == scans[mode], mode
            assert flow.horizon == minimum, mode
            assert check_flow(flow, instance, mode).ok, mode
        if isinstance(case, CycleParams):
            assert (scans[WITH], scans[WITHOUT]) == SEPARATING_CYCLES[case]
        if scans[WITH] is None:
            with pytest.raises(NoHorizonFound):
                speedup_ratio(instance, t_max)
        else:
            assert speedup_ratio(instance, t_max) == SpeedupReport(scans[WITH], scans[WITHOUT])

    def test_cycle8_no_storage_search_skips_what_its_witness_settled(self):
        # A witness settles every horizon it has fully arrived by, so no
        # such horizon is probed. On the k=8 cycle the route witness
        # settles 15, so inside [9, 15] the search probes 14 alone. On
        # the random instance of seed 962 the route witness ends at 6 and
        # the with-storage minimum is 4: the probe of 5 is feasible with a
        # witness that arrives by 4, so the search returns 4 unprobed.
        probes: list[tuple[int, bool]] = []

        def record(expansion, verdict):
            if expansion.mode is WITHOUT:
                probes.append((expansion.horizon, verdict.feasible))

        assert gap_sweep(8, 8, observer=record) == {8: SpeedupReport(9, 15)}
        assert probes == [(14, False)]
        probes.clear()
        report = speedup_ratio(random_instance(962, 5, 8, 3, 3), 40, observer=record)
        assert report == SpeedupReport(4, 4)
        assert probes == [(5, True)]

    def test_witness_below_a_proven_infeasible_horizon_raises(self, monkeypatch):
        # The patched probe calls every horizon up to 9 infeasible, with an
        # empty cut that no checker saw, and above it returns the real
        # witness of T=8, which flow_from_paths ends at its last arrival,
        # 8. The gallop from 2, capped below the route witness's 13,
        # probes 2, 3, 5, 9 and 12; by then the search has proved 8
        # infeasible, so it must fail loudly.
        instance = parallel_arcs_instance(12)
        real = probe_horizon(instance, 8, WITHOUT)[1].flow
        assert real.horizon == 8
        assert check_flow(real, instance, WITHOUT).ok
        probe = solver.probe_horizon

        def faulty(instance, horizon, mode):
            expansion, result = probe(instance, horizon, mode)
            if horizon <= 9:
                return expansion, Verdict(cut={})
            return expansion, Verdict(real)

        monkeypatch.setattr(solver, "probe_horizon", faulty)
        probes: list[int] = []
        with pytest.raises(RuntimeError, match="arrives by 8"):
            min_feasible_horizon(instance, WITHOUT, 20, observer=horizons_into(probes))
        assert probes == [2, 3, 5, 9, 12]


class TestVerdict:
    """A verdict carries exactly one certificate, the one its probe checked."""

    def test_exactly_one_certificate(self):
        flow = probe_horizon(single_arc_instance(), 2, WITH)[1].flow
        assert Verdict(flow).feasible and not Verdict(cut={}).feasible
        for fields in ({}, {"flow": flow, "cut": {}}, {"flow": flow, "cut": {("a0", 0): 1}}):
            with pytest.raises(ValueError, match="exactly one certificate"):
                Verdict(**fields)

    def test_every_cut_is_a_certificate_on_its_own(self):
        # Each infeasible verdict of the k=3..8 reports and of both modes'
        # searches on 60 instances at the random-solve bounds: its cut
        # passes check_cut at the probed horizon and, since a sound cut
        # proves only infeasible horizons, fails at the search's minimum.
        seen: list[tuple[ExpandedNetwork, Verdict, int]] = []
        probes: list[tuple[ExpandedNetwork, Verdict]] = []

        def record(expansion, verdict):
            probes.append((expansion, verdict))

        for k in range(3, 9):
            report = speedup_ratio(cycle_instance(k), 4 * k, observer=record)
            minima = {WITH: report.with_storage, WITHOUT: report.without_storage}
            seen += [(e, v, minima[e.mode]) for e, v in probes if not v.feasible]
            probes.clear()
        for seed in range(1, 61):
            for mode in (WITH, WITHOUT):
                instance = random_instance(seed, 6, 10, 3, 3)
                minimum, _ = min_feasible_horizon(instance, mode, 40, observer=record)
                seen += [(e, v, minimum) for e, v in probes if not v.feasible]
                probes.clear()
        assert len(seen) == 42
        for expansion, verdict, minimum in seen:
            instance, mode = expansion.instance, expansion.mode
            assert check_cut(expansion.horizon, verdict.cut, instance, mode).ok
            assert not check_cut(minimum, verdict.cut, instance, mode).ok, expansion.horizon

    def test_the_benchmark_probe_hook_reads_the_verdict(self):
        # perfbench/tracing.py reads each traced probe's verdict through
        # _ATTRIBUTES; the file is loaded by path, as it stands.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        hook = tracing._ATTRIBUTES["solver.probe_horizon"]
        args = (cycle_instance(3), 4, WITHOUT)
        assert hook(args, probe_horizon(*args)) is False
        args = (cycle_instance(3), 5, WITHOUT)
        assert hook(args, probe_horizon(*args)) is True


class TestValidity:
    """validate_instance alone decides validity, once per instance."""

    @pytest.mark.parametrize("nodes, arcs, commodity, defect", ONE_DEFECT_CASES)
    def test_every_entry_point_rejects_an_invalid_instance(self, nodes, arcs, commodity, defect):
        instance = one_defect_instance(nodes, arcs, commodity)
        calls = [
            lambda: build_time_expanded(instance, 3, WITH),
            lambda: probe_horizon(instance, 3, WITH),
            lambda: probe_horizon(instance, 3, WITHOUT),
            lambda: min_feasible_horizon(instance, WITHOUT, 10),
            lambda: speedup_ratio(instance, 10),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^invalid instance: {defect.invariant}: "):
                call()

    def test_the_report_is_computed_once_per_solve_and_per_speedup_ratio(
        self, monkeypatch, tmp_path, capsys
    ):
        computed: list[Instance] = []
        find = core._find_defects

        def counted(instance):
            computed.append(instance)
            return find(instance)

        monkeypatch.setattr(core, "_find_defects", counted)
        path = tmp_path / "cycle4.json"
        path.write_text(serialize_instance(cycle_instance(4)), encoding="utf-8")
        for mode, minimum in (("with-storage", "5"), ("no-storage", "7")):
            computed.clear()
            assert cli.main(["solve", "--mode", mode, "--max-T", "20", str(path)]) == 0
            assert capsys.readouterr().out == f"{minimum}\n"
            assert len(computed) == 1, mode
        probes: list[int] = []
        computed.clear()
        report = speedup_ratio(cycle_instance(8), 32, observer=horizons_into(probes))
        assert report == SpeedupReport(9, 15)
        assert len(probes) == 3 and len(computed) == 1


class TestIntegerHorizon:
    def test_least_integer_horizon_is_not_the_quickest_time(self):
        # The search reports the least integer horizon: 5 for the k=3
        # cycle without storage. On the same cycle in thirds of a time
        # unit (transits x3, capacities /3) the least integer horizon is
        # 13, and the witness, rescaled back, is a schedule for the
        # original cycle with horizon 13/3 < 5.
        original = cycle_instance(3)
        scaled = Instance(
            Network(
                original.network.nodes,
                tuple(
                    Arc(arc.id, arc.tail, arc.head, arc.capacity / 3, arc.transit * 3)
                    for arc in original.network.arcs
                ),
            ),
            original.commodities,
        )
        assert min_feasible_horizon(original, WITHOUT, 10)[0] == 5
        assert not probe_horizon(scaled, 12, WITHOUT)[1].feasible
        expansion, result = probe_horizon(scaled, 13, WITHOUT)
        assert result.feasible
        flow = result.flow
        horizon = F(13, 3)
        rescaled = FlowOverTime(
            horizon,
            {
                key: StepFunction(
                    horizon,
                    tuple(Piece(p.start / 3, p.end / 3, p.rate * 3) for p in step.pieces),
                )
                for key, step in flow.rates.items()
            },
        )
        assert check_flow(rescaled, original, WITHOUT).ok


def full_verdict(expansion) -> bool:
    """Verdict of the unreduced node-arc LP."""
    return lp_feasible(unreduced_lp(expansion)).feasible


class TestEdgeInstanceVerdicts:
    """Probe verdicts against the unreduced node-arc LP on edge
    instances: zero demand, unreachable nodes, zero capacity, zero
    transit, no movement copy and empty demand rows."""

    def test_verdicts_match_the_full_lp(self):
        instances = [random_instance(seed, 5, 8, 3, 3) for seed in range(1, 26)]
        assert any(arc.transit == 0 for i in instances for arc in i.network.arcs)
        instances += [cycle_instance(k) for k in (3, 4, 5)]
        for instance in instances:
            for mode in (WITH, WITHOUT):
                for horizon in range(1, 11):
                    expansion, result = probe_horizon(instance, horizon, mode)
                    assert result.feasible == full_verdict(expansion), (instance, horizon, mode)

    def test_sweep_minima_follow_the_closed_form(self):
        assert gap_sweep(3, 8) == {k: SpeedupReport(k + 1, 2 * k - 1) for k in range(3, 9)}

    def test_zero_demand_commodity(self):
        network = Network(
            ("v0", "v1", "v2"),
            (Arc("a0", "v0", "v1", F(1), 1), Arc("a1", "v1", "v2", F(1), 1)),
        )
        instance = Instance(
            network, (Commodity("v0", "v2", F(1)), Commodity("v1", "v2", F(0)))
        )
        for mode in (WITH, WITHOUT):
            for horizon in range(1, 6):
                expansion, result = probe_horizon(instance, horizon, mode)
                assert result.feasible == full_verdict(expansion)
                assert result.feasible == (horizon >= 3)

    def test_node_no_source_reaches_carries_no_flow(self):
        network = Network(
            ("s", "t", "x"),
            (Arc("a0", "s", "t", F(1), 1), Arc("a1", "x", "t", F(1), 1)),
        )
        instance = Instance(network, (Commodity("s", "t", F(2)),))
        for horizon in range(1, 6):
            expansion, result = probe_horizon(instance, horizon, WITH)
            assert result.feasible == full_verdict(expansion) == (horizon >= 3)
            if result.feasible:
                assert ("a1", 0) not in result.flow.rates

    def test_zero_capacity_arc_still_binds(self):
        network = Network(
            ("s", "t"),
            (Arc("shut", "s", "t", F(0), 1), Arc("open", "s", "t", F(1), 3)),
        )
        instance = Instance(network, (Commodity("s", "t", F(1)),))
        for mode in (WITH, WITHOUT):
            for horizon in range(1, 7):
                expansion, result = probe_horizon(instance, horizon, mode)
                assert result.feasible == full_verdict(expansion) == (horizon >= 4)
                if result.feasible:
                    assert not any(arc_id == "shut" for arc_id, _ in result.flow.rates)

    def test_zero_transit_arc_feeds_both_departures(self):
        network = Network(
            ("s", "v", "t"),
            (Arc("a0", "s", "v", F(1), 0), Arc("a1", "v", "t", F(1), 1)),
        )
        instance = Instance(network, (Commodity("s", "t", F(2)),))
        # dist(s, v) = 0: a1 departs at theta 0 and 1, each fed by a0
        # at the same step, and reaches t by T = 3.
        expansion, result = probe_horizon(instance, 3, WITHOUT)
        assert result.feasible == full_verdict(expansion)
        assert result.feasible
        assert result.flow.rates["a0", 0] == result.flow.rates["a1", 0]
        assert min_feasible_horizon(instance, WITHOUT, 10)[0] == 3

    def test_horizon_below_every_transit_is_infeasible(self):
        network = Network(("s", "t"), (Arc("a0", "s", "t", F(1), 3),))
        instance = Instance(network, (Commodity("s", "t", F(1)),))
        for mode in (WITH, WITHOUT):
            expansion, result = probe_horizon(instance, 3, mode)
            # Nothing can move, so the commodity has no path.
            assert expansion.movement_copies == ()
            assert route_departures(expansion, 0) == []
            assert not result.feasible
            assert not full_verdict(expansion)

    def test_empty_rows_satisfied_by_zero_are_dropped(self):
        # Commodity 0 ships s -> t over a0 at T=2. Commodity 1 needs
        # T >= 3 to cross a2, so it has no path; x is reachable from no
        # source, so no path uses a1.
        network = Network(
            ("s", "t", "x", "y"),
            (
                Arc("a0", "s", "t", F(1), 1),
                Arc("a1", "x", "t", F(1), 1),
                Arc("a2", "y", "t", F(1), 2),
            ),
        )
        instance = Instance(network, (Commodity("s", "t", F(1)), Commodity("y", "t", F(1))))
        expansion = build_time_expanded(instance, 2, WITH)
        paths = [(0, path) for path in route_departures(expansion, 0)]
        assert paths == [(0, (("a0", 0),))]
        assert route_departures(expansion, 1) == []
        lp, copies = fresh_master_lp(solver._PathMaster(expansion, [0, 1], paths))
        # The first master has no capacity row for the unused copy a1@0.
        # The empty demand row of commodity 1 stays, so the LP is
        # infeasible.
        assert copies == [("a0", 0)]
        assert lp.num_vars == 1
        assert lp.constraints == (
            row({0: 1}, "<=", 1),  # a0@0
            row({0: 1}, "=", 1),  # demand of commodity 0
            row({}, "=", 1),  # demand of commodity 1
        )
        assert not lp_feasible(lp).feasible
        assert not probe_horizon(instance, 2, WITH)[1].feasible
        assert not full_verdict(expansion)


def zero_transit_chain_instance() -> Instance:
    """s -> a -> b -> c over arcs of transit 0, listed in travel order so
    that each sweep over a layer's zero-transit copies carries a
    distance to the sink one node further back, then c -> t with
    transit 1. Commodity 1 starts inside the chain."""
    network = Network(
        ("s", "a", "b", "c", "t"),
        (
            Arc("z0", "s", "a", F(1), 0),
            Arc("z1", "a", "b", F(1), 0),
            Arc("z2", "b", "c", F(1), 0),
            Arc("m", "c", "t", F(1), 1),
        ),
    )
    return Instance(network, (Commodity("s", "t", F(2)), Commodity("a", "t", F(1))))


class TestLengthCertificate:
    """The cut check's distances, one backward pass over the time grid
    (checker._distance_to_sink), against the reference label-correcting
    search over every node-arc column."""

    @settings(max_examples=300, deadline=None)
    @given(
        instance=st.integers(min_value=1, max_value=10_000).map(
            lambda seed: random_instance(seed, 5, 8, 3, 3)
        ),
        horizon=st.integers(min_value=1, max_value=8),
        drawn=st.lists(st.integers(min_value=0, max_value=3), max_size=64),
    )
    @example(
        instance=zero_transit_chain_instance(),
        horizon=3,
        drawn=[2, 0, 1, 3, 1, 2, 0, 1, 2, 3, 1],
    )
    def test_grid_distances_match_the_reference(self, instance, horizon, drawn):
        # Lengths 0..3 on the movement copies in sorted order, 0 past
        # the end of drawn; transits 0..3, so zero-transit arcs occur.
        for mode in (WITH, WITHOUT):
            expansion = build_time_expanded(instance, horizon, mode)
            lengths = dict(zip(expansion.movement_copies, drawn))
            for i, goods in enumerate(instance.commodities):
                grid = checker._distance_to_sink(horizon, lengths, instance.network, goods, mode)
                assert grid == reference_distance(expansion, lengths, i), (mode, i)

    def test_zero_transit_chain_distances(self):
        # At T=3 commodity 0 crosses the chain and enters m at 0 or 1;
        # the cheaper crossing at 1 costs z0@1 + z1@1 + z2@1 + m@1.
        instance = zero_transit_chain_instance()
        network, (first, second) = instance.network, instance.commodities
        lengths = {("z0", 0): 5, ("z0", 1): 1, ("z1", 1): 1, ("z2", 1): 1, ("m", 0): 1}
        assert checker._distance_to_sink(3, lengths, network, first, WITHOUT) == 3
        assert checker._distance_to_sink(3, lengths, network, second, WITHOUT) == 1
        assert checker._distance_to_sink(3, {}, network, first, WITHOUT) == 0


class TestTimeSliceCut:
    """Cuts of unit lengths that a counting argument proves, found from
    the least transits alone and settled in the probe with no LP."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=1, max_value=10_000),
        shut=st.sets(st.integers(min_value=0, max_value=7)),
    )
    def test_least_transits_cross_every_arc(self, seed, shut):
        # Arcs in shut get capacity 0; the transits still cross them.
        base = random_instance(seed, 5, 8, 3, 3)
        arcs = tuple(
            replace(arc, capacity=F(0)) if j in shut else arc
            for j, arc in enumerate(base.network.arcs)
        )
        instance = Instance(Network(base.network.nodes, arcs), base.commodities)
        expected = [
            transit_distances(instance.network, goods.source)[goods.sink]
            for goods in instance.commodities
        ]
        assert list(instance.least_transits) == expected

    def test_cycle_slices_are_the_closed_forms(self):
        # Without storage the slice at layer k - 2 proves 2k - 2; with
        # storage layer 0 proves k, over every arc rather than a0's
        # copies (instances.py). Neither proves the minimum.
        for k in range(3, 13):
            instance = cycle_instance(k)
            assert solver._time_slice_cut(instance, 2 * k - 2, WITHOUT) == {
                (f"a{j}", k - 2): 1 for j in range(k)
            }
            assert solver._time_slice_cut(instance, k, WITH) == {
                (f"a{j}", 0): 1 for j in range(k)
            }
            assert solver._time_slice_cut(instance, 2 * k - 1, WITHOUT) is None
            assert solver._time_slice_cut(instance, k + 1, WITH) is None

    def test_a_slice_check_cut_rejects_raises(self, monkeypatch):
        # No fallback to the LP: a slice that fails check_cut is a defect.
        monkeypatch.setattr(solver, "_time_slice_cut", lambda *_: {})
        message = "^the length certificate at T=3 does not prove infeasibility: "
        with pytest.raises(RuntimeError, match=message):
            probe_horizon(cycle_instance(3), 3, WITH)

    def test_minimum_minus_one_beyond_every_slice_is_decided_by_the_lp(self, monkeypatch):
        # Five units over a fast and a slow parallel arc: the minimum is
        # 4 in both modes, and at T = 3 the commodity's least transit, 1,
        # is too short for any slice, so the path LP proves it.
        masters: list[solver._PathMaster] = []

        class Counted(solver._PathMaster):
            def __init__(self, *args) -> None:
                super().__init__(*args)
                masters.append(self)

        monkeypatch.setattr(solver, "_PathMaster", Counted)
        instance = parallel_arcs_instance(5)
        for mode in (WITH, WITHOUT):
            masters.clear()
            assert solver._time_slice_cut(instance, 3, mode) is None
            expansion, verdict = probe_horizon(instance, 3, mode)
            assert not verdict.feasible and len(masters) == 1, mode
            assert check_cut(3, verdict.cut, instance, mode).ok
            assert not full_verdict(expansion), mode
            assert min_feasible_horizon(instance, mode, 10)[0] == 4, mode

    @pytest.mark.parametrize("mode", [WITH, WITHOUT], ids=["with-storage", "no-storage"])
    def test_slice_crosses_an_arc_of_capacity_zero(self, monkeypatch, mode):
        # Three units s -> t over the open route s -> m -> t beside a
        # shortcut s -> t of the same transit 2 and capacity 0. At T = 3
        # the three units cross the slice and the open copies carry two.
        # A walk may take the shortcut at layer 0, so the cut puts length
        # 1 on it: without it, that walk costs nothing.
        monkeypatch.setattr(solver, "_PathMaster", lambda *_: pytest.fail("an LP was built"))
        arcs = (
            Arc("a", "s", "m", F(1), 1),
            Arc("b", "m", "t", F(1), 1),
            Arc("shut", "s", "t", F(0), 2),
        )
        instance = Instance(Network(("s", "m", "t"), arcs), (Commodity("s", "t", F(3)),))
        expansion, verdict = probe_horizon(instance, 3, mode)
        assert verdict.cut == {("a", 0): 1, ("b", 0): 1, ("shut", 0): 1}
        assert not full_verdict(expansion)
        open_only = {copy: 1 for copy in verdict.cut if copy[0] != "shut"}
        assert not check_cut(3, open_only, instance, mode).ok

    def test_a_commodity_that_can_pass_off_the_arcs_is_not_counted(self):
        # Commodity 0 crosses four unit arcs with demand 4 and commodity
        # 1 two others with demand 3. Without storage at T = 5, commodity
        # 1 (transit 2) can arrive by 2 or depart at 2, so it is off the
        # arcs at 1 + 1/2 and 2 + 1/2 and no slice counts it; counted, it
        # would make a slice at layer 1 that check_cut rejects. The path
        # LP proves T = 5 infeasible, as commodity 0 needs T = 8.
        nodes = ("s", "a", "b", "c", "t", "u", "x", "w")
        arcs = [
            Arc(f"r{j}", tail, head, F(1), 1) for j, (tail, head) in enumerate(zip("sabc", "abct"))
        ]
        arcs += [Arc("q0", "u", "x", F(1), 1), Arc("q1", "x", "w", F(1), 1)]
        commodities = (Commodity("s", "t", F(4)), Commodity("u", "w", F(3)))
        instance = Instance(Network(nodes, tuple(arcs)), commodities)
        assert instance.least_transits == (4, 2)
        assert solver._time_slice_cut(instance, 5, WITHOUT) is None
        counted = {(arc.id, 1): 1 for arc in arcs}
        assert not check_cut(5, counted, instance, WITHOUT).ok
        expansion, verdict = probe_horizon(instance, 5, WITHOUT)
        assert not verdict.feasible and not full_verdict(expansion)
        assert min_feasible_horizon(instance, WITHOUT, 20)[0] == 8

    def test_gap_sweep_solves_one_lp_per_k(self, monkeypatch):
        # Every cycle's cut probes are slices; only the with-storage
        # witness at k + 1 builds a master.
        built: list[tuple[int, int, StorageMode]] = []

        class Counted(solver._PathMaster):
            def __init__(self, expansion, *args) -> None:
                super().__init__(expansion, *args)
                nodes = len(expansion.instance.network.nodes)
                built.append((nodes, expansion.horizon, expansion.mode))

        monkeypatch.setattr(solver, "_PathMaster", Counted)
        reports = gap_sweep(3, 12)
        assert reports == {k: SpeedupReport(k + 1, 2 * k - 1) for k in range(3, 13)}
        assert built == [(k, k + 1, WITH) for k in range(3, 13)]


def complete_digraph_instance() -> Instance:
    """Every ordered pair of 6 nodes is an arc of capacity 1 and transit
    1 + (u + 2v) mod 3; three commodities with large demands. Its
    minimum without storage is 7, and each commodity has dozens of
    routes, too many to list for every departure."""
    arcs = tuple(
        Arc(f"a{u}{v}", f"n{u}", f"n{v}", F(1), 1 + (u + 2 * v) % 3)
        for u in range(6)
        for v in range(6)
        if u != v
    )
    commodities = (
        Commodity("n0", "n5", F(14)),
        Commodity("n1", "n4", F(12)),
        Commodity("n2", "n3", F(12)),
    )
    return Instance(Network(tuple(f"n{i}" for i in range(6)), arcs), commodities)


def assert_demand_part_rule(master: solver._PathMaster) -> None:
    """The rule a new column's demand part is built by: for every row of
    the tableau, the objective included, entry j minus the entries of
    the slacks along path j equals, for each of one commodity's columns
    j, the entry of its artificial (plus the artificial's cost 1 in the
    objective). The artificial's column is B^-1 e_r, which is never
    zero, so it must be in the tableau whether basic or not."""
    rows = [(entries, 0) for entries in master.rows]
    rows.append((master.objective, master.objective_den))
    for i, demand_row in master.demand_row.items():
        own = [j for j, (commodity, _) in enumerate(master.paths) if commodity == i]
        slacks = {j: [solver._SLACK + master.row_of[e] for e in master.paths[j][1]] for j in own}
        artificial = solver._ART + demand_row
        assert any(artificial in entries for entries in master.rows), i
        for entries, cost in rows:
            parts = {entries.get(j, 0) - sum(entries.get(c, 0) for c in slacks[j]) for j in own}
            parts.add(entries.get(artificial, 0) + cost)
            assert len(parts) == 1, (i, parts)


class RecordedMaster(solver._PathMaster):
    """A path master that counts its runs of phase one (the first
    master's, then one per append) and checks the demand-part rule on the
    first master and after each append."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.appends = 1
        assert_demand_part_rule(self)

    def add(self, i, path) -> None:
        super().add(i, path)
        self.appends += 1
        assert_demand_part_rule(self)


def assert_matches_the_node_arc_lp(instance: Instance, horizon: int, mode: StorageMode):
    """Decide the horizon in the mode on the path LP alone
    (solver._decide_by_paths, which a probe skips when a time-slice cut
    settles it) and check the verdict against the unreduced node-arc
    LP's; returns (expansion, result, final master). A feasible verdict's
    flow, lifted onto that LP, must satisfy every row of it, which
    proves it feasible; an infeasible verdict must agree with lp_feasible
    on it. (Solving the feasible node-arc LPs with storage would take
    minutes at k = 8.) The verdict of the warm master must also equal
    lp_feasible's on the same final master built from scratch, and the
    demand-part rule must hold after every append. Where the time-slice
    cut proves the horizon, check_cut must accept it and the verdict
    must be infeasible, and so the node-arc LP too."""
    masters: list[RecordedMaster] = []

    def recorded(*args) -> RecordedMaster:
        masters.append(RecordedMaster(*args))
        return masters[-1]

    expansion = build_time_expanded(instance, horizon, mode)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_PathMaster", recorded)
        result = solver._decide_by_paths(expansion)
    [master] = masters
    cold, _ = path_master_lp(expansion, master.paths)
    assert lp_feasible(cold).feasible == result.feasible, (instance, horizon, mode)
    lengths = solver._time_slice_cut(instance, horizon, mode)
    if lengths is not None:
        assert check_cut(horizon, lengths, instance, mode).ok, (instance, horizon, mode)
        assert not result.feasible, (instance, horizon, mode)
    if result.feasible:
        assert flow_satisfies_unreduced_lp(expansion, result.flow), (instance, horizon, mode)
    else:
        assert not full_verdict(expansion), (instance, horizon, mode)
    return expansion, result, master


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=10_000),
    horizon=st.integers(min_value=1, max_value=10),
)
def random_probes_match_the_node_arc_lp(mode: StorageMode, seed: int, horizon: int):
    assert_matches_the_node_arc_lp(random_instance(seed, 5, 8, 3, 3), horizon, mode)


class PathLPCases:
    """Probes are decided over paths by column generation; the unreduced
    node-arc LP is the reference. Each subclass runs these cases in its
    mode."""

    mode: StorageMode
    # Infeasible probes of the cycle searches k = 3, 4, 5 and of the
    # complete digraph's search.
    infeasible_probes: int
    # Infeasible verdicts among the probes of the full-pricing test.
    infeasible_cases: int
    # (runs of phase one, final columns) of the dense instance's probes.
    dense_columns: list[tuple[int, int]]

    def cycle_minimum(self, k: int) -> int:
        raise NotImplementedError

    @pytest.mark.parametrize(
        "params",
        [*range(3, 9), *SEPARATING_CYCLES],
        ids=lambda p: None if isinstance(p, int) else f"{p.k}-d0={p.d0}",
    )
    def test_cycle_verdicts_match_the_node_arc_lp(self, params: int | CycleParams):
        # The cycles of the closed form up to 2k + 2 and the separating
        # cycles up to 2k + 3, from T = 1.
        if isinstance(params, int):
            horizons, minimum = range(1, 2 * params + 3), self.cycle_minimum(params)
        else:
            horizons = range(1, 2 * params.k + 4)
            minimum = SEPARATING_CYCLES[params][self.mode is WITHOUT]
        verdicts = [
            assert_matches_the_node_arc_lp(cycle_instance(params), t, self.mode)[1].feasible
            for t in horizons
        ]
        assert verdicts == [t >= minimum for t in horizons]

    def test_pricing_rounds_resume_one_tableau(self):
        # The tight probe of the k=6 cycle, and the probe below it. With
        # storage, pricing appends waiting paths over several rounds,
        # each checked against the demand-part rule; without storage
        # the first master is final.
        minimum = self.cycle_minimum(6)
        rounds = [
            assert_matches_the_node_arc_lp(cycle_instance(6), t, self.mode)[2].appends
            for t in (minimum - 1, minimum)
        ]
        assert rounds == self.cycle6_rounds

    def test_random_verdicts_match_the_node_arc_lp(self):
        random_probes_match_the_node_arc_lp(self.mode)

    def test_dense_instance_verdicts_match_with_few_columns(self):
        verdicts, columns = [], []
        for horizon in range(3, 11):
            expansion, result, master = assert_matches_the_node_arc_lp(
                complete_digraph_instance(), horizon, self.mode
            )
            verdicts.append(result.feasible)
            columns.append((master.appends, len(master.paths)))
        # Pricing keeps the master small: the runs of phase one and the
        # final columns at T = 3..10, against up to 702 (movement copy,
        # commodity) columns of the node-arc LP. They are pinned, as the
        # pivots are, because they follow the pivoting rule exactly.
        assert columns == self.dense_columns
        assert len(expansion.movement_copies) * len(expansion.instance.commodities) == 702
        assert verdicts == [False] * 4 + [True] * 4

    def test_every_infeasible_probe_checks_its_certificate(self, monkeypatch):
        certified: list[int] = []
        check = solver.check_cut

        def counted(horizon, lengths, instance, mode):
            report = check(horizon, lengths, instance, mode)
            certified.append(horizon)
            return report

        monkeypatch.setattr(solver, "check_cut", counted)
        infeasible: list[int] = []

        def record(expansion, result):
            if not result.feasible:
                infeasible.append(expansion.horizon)

        for k in (3, 4, 5):
            min_feasible_horizon(cycle_instance(k), self.mode, 4 * k, observer=record)
        min_feasible_horizon(complete_digraph_instance(), self.mode, 12, observer=record)
        assert certified == infeasible
        assert len(infeasible) == self.infeasible_probes

    def test_infeasible_verdicts_follow_a_full_pricing_round(self, monkeypatch):
        # A pricing round may end at its first column, but the round
        # before an infeasible verdict must price every demanded
        # commodity exactly once, all under the lengths of the duals
        # read last.
        calls: list[tuple[int, object]] = []
        last: list[object] = [None]
        price, read = solver.cheapest_path, solver._master_duals

        def priced(expansion, commodity, lengths):
            calls.append((commodity, lengths))
            return price(expansion, commodity, lengths)

        def duals(master):
            calls.clear()
            last[0], demand_duals = read(master)
            return last[0], demand_duals

        monkeypatch.setattr(solver, "cheapest_path", priced)
        monkeypatch.setattr(solver, "_master_duals", duals)
        cases = [(cycle_instance(k), t) for k in range(3, 7) for t in sorted({k, k + 1, 2 * k - 2})]
        cases += [(complete_digraph_instance(), t) for t in range(3, 7)]
        cases += [(random_instance(seed, 5, 8, 3, 3), t) for seed in range(1, 21) for t in (2, 3)]
        verdicts = 0
        for instance, horizon in cases:
            calls.clear()
            result = solver._decide_by_paths(build_time_expanded(instance, horizon, self.mode))
            if not result.feasible:
                verdicts += 1
                goods = instance.commodities
                demanded = [i for i, commodity in enumerate(goods) if commodity.demand > 0]
                assert sorted(i for i, _ in calls) == demanded, (instance, horizon)
                assert all(lengths is last[0] for _, lengths in calls), (instance, horizon)
        assert verdicts == self.infeasible_cases

    def test_corrupted_length_certificate_raises(self, monkeypatch):
        # The zero length function proves nothing, so the path LP must
        # raise; a negative length is no length function at all, so the
        # checker reports it. A time-slice cut settles this horizon in a
        # probe, so the path LP is called on its own.
        horizon = self.cycle_minimum(3) - 1
        expansion = build_time_expanded(cycle_instance(3), horizon, self.mode)
        certificates = []
        check = solver.check_cut

        def recorded(*args):
            certificates.append(args)
            return check(*args)

        monkeypatch.setattr(solver, "check_cut", recorded)
        assert not solver._decide_by_paths(expansion).feasible
        _, lengths, instance, _ = certificates[0]
        negated = check(horizon, {copy: -v for copy, v in lengths.items()}, instance, self.mode)
        assert not negated.ok and {v.kind for v in negated.violations} == {"cut"}
        duals = solver._master_duals
        monkeypatch.setattr(
            solver, "_master_duals", lambda master: ({}, dict.fromkeys(duals(master)[1], 0))
        )
        message = f"^the length certificate at T={horizon} does not prove infeasibility: "
        with pytest.raises(RuntimeError, match=message):
            solver._decide_by_paths(expansion)


class TestDepartureLP(PathLPCases):
    """Without storage a path never waits between its source and sink."""

    mode = WITHOUT
    infeasible_probes = 11
    infeasible_cases = 25
    cycle6_rounds = [1, 1]
    dense_columns = [(1, 3), (3, 8), (9, 17), (21, 32), (27, 41), (22, 39), (18, 38), (15, 38)]

    def cycle_minimum(self, k: int) -> int:
        return 2 * k - 1

    def test_cycle20_search_is_decided(self):
        minimum, flow = min_feasible_horizon(cycle_instance(20), WITHOUT, 42)
        assert minimum == 39
        assert check_flow(flow, cycle_instance(20), WITHOUT).ok


class TestWaitingPathLP(PathLPCases):
    """With storage a path may wait at any node on its way."""

    mode = WITH
    infeasible_probes = 6
    infeasible_cases = 18
    cycle6_rounds = [1, 10]
    dense_columns = [(1, 3), (3, 8), (9, 17), (21, 32), (33, 47), (22, 39), (18, 38), (15, 38)]

    def cycle_minimum(self, k: int) -> int:
        return k + 1

    def test_cycle20_tight_probe_takes_few_pivots(self, monkeypatch):
        # The tight probe at T = k + 1 needs about one waiting path per
        # commodity per round. Phase one resumes from the last basis
        # after each round; solving each master from scratch took
        # 18,079 pivots here.
        pivots = [0]
        pivot = solver._pivot_exact

        def counted(*args):
            pivots[0] += 1
            return pivot(*args)

        monkeypatch.setattr(solver, "_pivot_exact", counted)
        _, result = probe_horizon(cycle_instance(20), 21, WITH)
        assert result.feasible
        assert check_flow(result.flow, cycle_instance(20), WITH).ok
        assert pivots[0] <= 1000


def lexicographically_positive(row: dict[int, int]) -> bool:
    """Whether a tableau row's [rhs | B^-1] part, the right-hand side and
    then the slack and artificial columns in column order, starts with a
    positive entry."""
    if rhs := row.get(solver._RHS, 0):
        return rhs > 0
    first = min((c for c, v in row.items() if c >= solver._SLACK and v), default=None)
    return first is not None and row[first] > 0


class TestLexicographicRule:
    """Phase one breaks exact ratio-test ties lexicographically over
    [rhs | B^-1], so every row of it stays lexicographically positive and
    no basis repeats, whatever the entering rule; with no other rule
    beside it, phase one terminates on its own."""

    def checked_pivots(self, monkeypatch) -> list[int]:
        """Check every row after each pivot; returns [pivots, exact ties
        broken], counted from here."""
        counts = [0, 0]
        pivot, lex_less = solver._pivot_exact, solver._lex_less

        def checked(master, r, entering):
            pivot(master, r, entering)
            counts[0] += 1
            for i, entries in enumerate(master.rows):
                assert lexicographically_positive(entries), (i, master.basis[i], entries)

        def tie(*args):
            counts[1] += 1
            return lex_less(*args)

        monkeypatch.setattr(solver, "_pivot_exact", checked)
        monkeypatch.setattr(solver, "_lex_less", tie)
        return counts

    @pytest.mark.parametrize("mode", [WITH, WITHOUT], ids=["with-storage", "no-storage"])
    def test_every_row_stays_lexicographically_positive(self, monkeypatch, mode):
        counts = self.checked_pivots(monkeypatch)
        cases = [(cycle_instance(6), t) for t in range(6, 15)]
        cases.append((complete_digraph_instance(), 7))
        cases += [(random_instance(seed, 5, 8, 3, 3), t) for seed in range(1, 21) for t in (2, 4)]
        for instance, horizon in cases:
            solver._decide_by_paths(build_time_expanded(instance, horizon, mode))
        # Ties do occur, so the rule is exercised, not just present.
        assert counts[0] > 0 and counts[1] > 0, counts

    def test_degenerate_cycle_pivots(self, monkeypatch):
        # With d0 = 3 the cycle's feasible probes are highly degenerate.
        # Ties to the smallest basic index, with a switch to Bland's rule
        # after 32 degenerate pivots, made [8, 62, 227, 219] here. The
        # time-slice cut, which settles the first probe with no pivot,
        # is switched off, so that every probe runs the path LP.
        counts = self.checked_pivots(monkeypatch)
        monkeypatch.setattr(solver, "_time_slice_cut", lambda *_: None)
        pivots: list[int] = []

        def record(*_):
            pivots.append(counts[0] - sum(pivots))

        minimum, _ = min_feasible_horizon(
            cycle_instance(CycleParams(8, F(3))), WITH, 32, observer=record
        )
        assert (minimum, pivots) == (10, [8, 32, 117, 217])

    def test_rows_tied_on_every_column_raise(self):
        # Rows of a nonsingular B^-1 are never proportional, so a tie on
        # every column means the tableau is corrupt.
        entries = {solver._RHS: 2, 0: 5, solver._SLACK: 3, solver._ART + 1: -1}
        doubled = {c: 2 * v for c, v in entries.items()}
        with pytest.raises(RuntimeError, match=r"tied two rows of B\^-1 on every column"):
            solver._lex_less(entries, 1, doubled, 2)
        assert solver._lex_less({solver._SLACK + 1: 1}, 1, {solver._SLACK: 1}, 1)


class TestMovementSolution:
    """The witness flow of a feasible probe."""

    def test_round_trip_through_the_checker(self):
        instance = cycle_instance(4)
        _, result = probe_horizon(instance, 7, WITHOUT)
        assert result.feasible
        assert result.flow.horizon == 7
        assert check_flow(result.flow, instance, WITHOUT).ok


class TestSweep:
    def test_speedup_cycle4(self):
        report = speedup_ratio(cycle_instance(4), 20)
        assert (report.with_storage, report.without_storage) == (5, 7)
        assert report.ratio == F(7, 5)

    def test_single_commodity_no_gap(self):
        instance = single_arc_instance()
        report = speedup_ratio(instance, 10)
        assert report.with_storage == report.without_storage == 2
        assert report.ratio == 1

    def test_sweep_values_for_small_k(self):
        assert gap_sweep(3, 4) == {3: SpeedupReport(4, 5), 4: SpeedupReport(5, 7)}

    def test_sweep_bounds_validated(self):
        with pytest.raises(ValueError):
            gap_sweep(2, 5)
        with pytest.raises(ValueError):
            gap_sweep(5, 4)

    @pytest.mark.parametrize("bounds", [(3.0, 4), (3, 4.5), (3, "4"), (F(3), 4), (3, True)])
    def test_sweep_bounds_must_be_integers(self, bounds):
        with pytest.raises(ValueError, match="need 3 <= k_min <= k_max"):
            gap_sweep(*bounds)

    def test_csv_format(self):
        reports = {3: SpeedupReport(4, 5), 4: SpeedupReport(5, 7), 6: SpeedupReport(7, 11)}
        assert gap_csv(reports) == (
            "k,minT_with,minT_without,ratio\n"
            "3,4,5,5/4\n"
            "4,5,7,7/5\n"
            "6,7,11,11/7\n"
        )

    def test_no_storage_probes_stay_in_the_bracket(self):
        probes: dict[tuple[int, StorageMode], list[int]] = {}

        def record(expansion, _):
            key = (len(expansion.instance.network.nodes), expansion.mode)
            probes.setdefault(key, []).append(expansion.horizon)

        reports = gap_sweep(3, 8, observer=record)
        for k, report in reports.items():
            with_storage = report.with_storage
            assert all(with_storage <= t <= 2 * with_storage for t in probes[k, WITHOUT]), k
