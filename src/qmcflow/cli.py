"""Command-line front end.

Subcommands:

  gen      write a generated instance or schedule (JSON)
  solve    least feasible integer horizon of an instance, optionally
           emitting a witness flow
  check    validate a flow against an instance and print violations
  expand   dump a time expansion summary
  gap      run the cycle family sweep and print CSV

Machine-readable output goes to stdout, diagnostics to stderr. Exit
codes: 0 success / feasible / valid, 1 infeasible or invalid data,
2 usage or parse errors. Rationals are printed as p or p/q, never as
decimals.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from .checker import check_flow
from .core import (
    Instance,
    StorageMode,
    parse_flow,
    parse_instance,
    rational,
    serialize_flow,
    serialize_instance,
    validate_instance,
)
from .expansion import build_time_expanded
from .instances import (
    CycleParams,
    cycle_instance,
    random_instance,
    wait_schedule_with_storage,
    wave_schedule_no_storage,
)
from .solver import NoHorizonFound, gap_csv, gap_sweep, min_feasible_horizon

__all__ = ["main"]

_MODES = {mode.value: mode for mode in StorageMode}


def _add_mode(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        required=True,
        choices=sorted(_MODES),
        help="whether flow may wait at intermediate nodes",
    )


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", metavar="FILE", help="write here instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. parse_args keeps no
    state between calls, and building the parser takes about as long as
    solving a small instance."""
    parser = argparse.ArgumentParser(
        prog="qmcflow",
        description="Multi-commodity flows over time: generators, checker, solver.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    gen = commands.add_parser("gen", help="generate instances and schedules")
    kinds = gen.add_subparsers(dest="kind", required=True, metavar="KIND")

    gen_cycle = kinds.add_parser("cycle", help="cycle instance with k nodes")
    gen_cycle.add_argument("--k", type=int, required=True, help="number of nodes (>= 3)")
    gen_cycle.add_argument(
        "--d0", default="2", metavar="R", help="demand of commodity 0 as p or p/q (default 2)"
    )
    _add_output(gen_cycle)

    gen_wait = kinds.add_parser(
        "wait-schedule", help="storage-using schedule for the cycle instance, horizon k+1"
    )
    gen_wait.add_argument("--k", type=int, required=True, help="number of nodes (>= 3)")
    _add_output(gen_wait)

    gen_wave = kinds.add_parser(
        "wave-schedule", help="no-storage schedule for the cycle instance, horizon 2k-1"
    )
    gen_wave.add_argument("--k", type=int, required=True, help="number of nodes (>= 3)")
    _add_output(gen_wave)

    gen_random = kinds.add_parser("random", help="seeded random instance")
    gen_random.add_argument("--seed", type=int, required=True)
    gen_random.add_argument("--nodes", type=int, default=5, help="node budget (default 5)")
    gen_random.add_argument("--arcs", type=int, default=8, help="arc budget (default 8)")
    gen_random.add_argument(
        "--commodities", type=int, default=3, help="commodity budget (default 3)"
    )
    gen_random.add_argument("--tau", type=int, default=3, help="largest transit time (default 3)")
    _add_output(gen_random)

    solve = commands.add_parser("solve", help="least feasible integer horizon")
    _add_mode(solve)
    solve.add_argument("--max-T", type=int, required=True, metavar="N", help="search bound")
    solve.add_argument(
        "--emit-flow", metavar="FILE", help="write a witness flow for the least horizon found"
    )
    solve.add_argument("instance", metavar="INSTANCE", help="instance file")

    check = commands.add_parser("check", help="validate a flow against an instance")
    _add_mode(check)
    check.add_argument("instance", metavar="INSTANCE", help="instance file")
    check.add_argument("flow", metavar="FLOW", help="flow file")

    expand = commands.add_parser("expand", help="print a time expansion summary")
    expand.add_argument("--T", type=int, required=True, metavar="N", help="horizon")
    _add_mode(expand)
    expand.add_argument("instance", metavar="INSTANCE", help="instance file")

    gap = commands.add_parser("gap", help="cycle family sweep, CSV output")
    gap.add_argument("--k-min", type=int, required=True)
    gap.add_argument("--k-max", type=int, required=True)
    gap.add_argument("--csv", metavar="FILE", help="write the CSV here instead of stdout")

    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _validated_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        instance = parse_instance(handle.read())
    report = validate_instance(instance)
    if not report.ok:
        for defect in report.defects:
            print(f"invalid instance: {defect.invariant}: {defect.element}: {defect.detail}", file=sys.stderr)
        raise _InvalidData
    return instance


class _InvalidData(Exception):
    """Semantically invalid input; diagnostics already printed."""


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "cycle":
        text = serialize_instance(cycle_instance(CycleParams(args.k, rational(args.d0))))
    elif args.kind == "wait-schedule":
        text = serialize_flow(wait_schedule_with_storage(args.k))
    elif args.kind == "wave-schedule":
        text = serialize_flow(wave_schedule_no_storage(args.k))
    else:
        instance = random_instance(
            args.seed,
            node_max=args.nodes,
            arc_max=args.arcs,
            commodity_max=args.commodities,
            tau_max=args.tau,
        )
        text = serialize_instance(instance)
    _emit(text, args.output)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _validated_instance(args.instance)
    horizon, flow = min_feasible_horizon(instance, _MODES[args.mode], args.max_T)
    if args.emit_flow:
        _emit(serialize_flow(flow), args.emit_flow)
        print(f"witness flow written to {args.emit_flow}", file=sys.stderr)
    print(horizon)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    instance = _validated_instance(args.instance)
    with open(args.flow, "r", encoding="utf-8") as handle:
        flow = parse_flow(handle.read())
    try:
        report = check_flow(flow, instance, _MODES[args.mode])
    except ValueError as exc:
        print(f"invalid flow: {exc}", file=sys.stderr)
        return 1
    if report.ok:
        print("no violations", file=sys.stderr)
        return 0
    sys.stdout.write(report.to_json_lines())
    print(f"{len(report.violations)} violation(s)", file=sys.stderr)
    return 1


def _cmd_expand(args: argparse.Namespace) -> int:
    instance = _validated_instance(args.instance)
    expansion = build_time_expanded(instance, args.T, _MODES[args.mode])
    sys.stdout.write(expansion.describe())
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    reports = gap_sweep(args.k_min, args.k_max)
    _emit(gap_csv(reports), args.csv)
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "check": _cmd_check,
    "expand": _cmd_expand,
    "gap": _cmd_gap,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except _InvalidData:
        return 1
    except NoHorizonFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        # ParseError is a ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
