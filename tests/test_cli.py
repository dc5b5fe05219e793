"""Command-line behavior: artifacts on stdout, diagnostics on stderr,
exit codes 0 (success) / 1 (infeasible or invalid data) / 2 (usage)."""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import qmcflow
from qmcflow import expansion, solver
from qmcflow.checker import check_flow
from qmcflow.cli import main
from qmcflow.core import (
    Arc,
    Commodity,
    Instance,
    Network,
    StorageMode,
    parse_flow,
    parse_instance,
    serialize_flow,
    serialize_instance,
)
from qmcflow.instances import CycleParams, cycle_instance, random_instance


@pytest.fixture
def cycle4(tmp_path: Path) -> str:
    path = tmp_path / "cycle4.json"
    path.write_text(serialize_instance(cycle_instance(4)), encoding="utf-8")
    return str(path)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_cycle_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "--k", "4")
        assert code == 0
        assert parse_instance(out) == cycle_instance(4)

    def test_cycle_with_d0(self, capsys, tmp_path):
        target = tmp_path / "inst.json"
        code, out, _ = run(capsys, "gen", "cycle", "--k", "5", "--d0", "3/2", "-o", str(target))
        assert code == 0
        assert out == ""
        parsed = parse_instance(target.read_text(encoding="utf-8"))
        assert parsed == cycle_instance(CycleParams(5, Fraction(3, 2)))

    def test_wait_schedule_checks_out(self, capsys):
        code, out, _ = run(capsys, "gen", "wait-schedule", "--k", "4")
        assert code == 0
        flow = parse_flow(out)
        assert check_flow(flow, cycle_instance(4), StorageMode.WITH_STORAGE).ok

    def test_wave_schedule_checks_out(self, capsys):
        code, out, _ = run(capsys, "gen", "wave-schedule", "--k", "4")
        assert code == 0
        flow = parse_flow(out)
        assert check_flow(flow, cycle_instance(4), StorageMode.NO_INTERMEDIATE_STORAGE).ok

    def test_random_is_reproducible(self, capsys):
        first = run(capsys, "gen", "random", "--seed", "11")
        second = run(capsys, "gen", "random", "--seed", "11")
        assert first == second
        assert first[0] == 0

    def test_options_do_not_leak_between_calls(self, capsys):
        code, out, _ = run(capsys, "gen", "random", "--seed", "1", "--nodes", "3")
        assert code == 0
        assert parse_instance(out) == random_instance(1, 3, 8, 3, 3)
        code, out, _ = run(capsys, "gen", "random", "--seed", "1")
        assert code == 0
        assert parse_instance(out) == random_instance(1, 5, 8, 3, 3)
        assert random_instance(1, 5, 8, 3, 3) != random_instance(1, 3, 8, 3, 3)

    def test_bad_k_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "cycle", "--k", "2")
        assert code == 2
        assert "error" in err


class TestSolve:
    def test_with_storage_minimum(self, capsys, cycle4):
        code, out, _ = run(capsys, "solve", "--mode", "with-storage", "--max-T", "10", cycle4)
        assert code == 0
        assert out == "5\n"

    def test_no_storage_minimum(self, capsys, cycle4):
        code, out, _ = run(capsys, "solve", "--mode", "no-storage", "--max-T", "10", cycle4)
        assert code == 0
        assert out == "7\n"

    def test_bound_exhausted_is_exit_one(self, capsys, cycle4):
        code, out, err = run(capsys, "solve", "--mode", "no-storage", "--max-T", "6", cycle4)
        assert code == 1
        assert out == ""
        assert "no feasible horizon" in err

    def test_emitted_flow_is_a_witness(self, capsys, cycle4, tmp_path):
        target = tmp_path / "flow.json"
        code, out, err = run(
            capsys,
            "solve",
            "--mode",
            "no-storage",
            "--max-T",
            "10",
            "--emit-flow",
            str(target),
            cycle4,
        )
        assert code == 0
        assert out == "7\n"
        assert str(target) in err
        flow = parse_flow(target.read_text(encoding="utf-8"))
        assert flow.horizon == 7
        assert check_flow(flow, cycle_instance(4), StorageMode.NO_INTERMEDIATE_STORAGE).ok

    def test_emit_flow_solves_no_extra_lp(self, capsys, cycle4, tmp_path, monkeypatch):
        # Every master of every probe, cold or resumed after a pricing
        # round, is one run of phase one.
        calls = []
        run_phase_one = solver._run_phase_one

        def counted(*args, **kwargs):
            calls.append(args)
            return run_phase_one(*args, **kwargs)

        monkeypatch.setattr(solver, "_run_phase_one", counted)
        counts = []
        for extra in ([], ["--emit-flow", str(tmp_path / "flow.json")]):
            calls.clear()
            code, out, _ = run(capsys, "solve", "--mode", "no-storage", "--max-T", "10", *extra, cycle4)
            assert (code, out) == (0, "7\n")
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[0] == counts[1]

    def test_each_solve_converts_one_witness(self, capsys, tmp_path, monkeypatch):
        # Each feasible probe turns its path values into a flow once;
        # --emit-flow converts nothing more and writes the flow that the
        # search returns. With d0 = 3 the k=4 cycle's route witness ends
        # at 8, above the no-storage minimum 7, so a probe settles it.
        calls = []
        convert = expansion.flow_from_paths

        def counted(*args, **kwargs):
            calls.append(args)
            return convert(*args, **kwargs)

        for layer in ("cli", "core", "instances", "solver", "checker"):
            module = import_module(f"qmcflow.{layer}")
            monkeypatch.setattr(module, "flow_from_paths", counted, raising=False)
        instance = cycle_instance(CycleParams(4, Fraction(3)))
        path = tmp_path / "cycle4d3.json"
        path.write_text(serialize_instance(instance), encoding="utf-8")
        target = tmp_path / "flow.json"
        counts = []
        for extra in ([], ["--emit-flow", str(target)]):
            calls.clear()
            code, out, _ = run(capsys, "solve", "--mode", "no-storage", "--max-T", "10", *extra, str(path))
            assert (code, out) == (0, "7\n")
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[0] == counts[1]
        mode = StorageMode.NO_INTERMEDIATE_STORAGE
        _, flow = solver.min_feasible_horizon(instance, mode, 10)
        assert target.read_text(encoding="utf-8") == serialize_flow(flow)

    def test_never_feasible_instance_is_exit_one(self, capsys, tmp_path):
        # The only path from s to t crosses an arc of capacity 0, so no
        # horizon can be feasible; solve says so before probing any.
        instance = Instance(
            Network(
                ("s", "m", "t"),
                (Arc("a0", "s", "m", Fraction(0), 1), Arc("a1", "m", "t", Fraction(1), 1)),
            ),
            (Commodity("s", "t", Fraction(1)),),
        )
        path = tmp_path / "zero.json"
        path.write_text(serialize_instance(instance), encoding="utf-8")
        for mode in ("with-storage", "no-storage"):
            code, out, err = run(capsys, "solve", "--mode", mode, "--max-T", "4000", str(path))
            assert (code, out) == (1, "")
            assert "commodity 0 has no path from 's' to 't'" in err

    def test_invalid_instance_is_exit_one(self, capsys, tmp_path):
        doc = json.loads(serialize_instance(cycle_instance(3)))
        doc["commodities"][0]["sink"] = doc["commodities"][0]["source"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "solve", "--mode", "with-storage", "--max-T", "5", str(path))
        assert code == 1
        assert "invalid instance" in err

    @pytest.mark.parametrize(
        "nodes, arcs, sink, line",
        [
            (["s", "t", "s"], [], "t", "duplicate node id: s: node listed more than once"),
            (
                ["s", "t"],
                [("a1", "t", "u")],
                "t",
                "unknown arc endpoint: a1: node 'u' is not in the network",
            ),
            (["s", "t"], [("a1", "s", "s")], "t", "self-loop: a1: tail and head are both 's'"),
            (
                ["s", "t"],
                [],
                "u",
                "unknown commodity endpoint: commodity 0: node 'u' is not in the network",
            ),
        ],
        ids=["duplicate-node", "unknown-arc-endpoint", "self-loop", "unknown-commodity-endpoint"],
    )
    def test_graph_defects_in_a_file_are_exit_one(self, capsys, tmp_path, nodes, arcs, sink, line):
        # The graph invariants that parse_instance leaves to
        # validate_instance: the file parses, and solve and expand both
        # refuse it with one stderr line per defect.
        arcs = [("a0", "s", "t"), *arcs]
        doc = {
            "nodes": nodes,
            "arcs": [
                {"id": a, "tail": tail, "head": head, "capacity": "1", "transit": 1}
                for a, tail, head in arcs
            ],
            "commodities": [{"source": "s", "sink": sink, "demand": "1"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        parse_instance(path.read_text(encoding="utf-8"))
        for argv in (
            ("solve", "--mode", "with-storage", "--max-T", "5"),
            ("expand", "--T", "3", "--mode", "no-storage"),
        ):
            assert run(capsys, *argv, str(path)) == (1, "", f"invalid instance: {line}\n"), argv

    def test_missing_file_is_exit_two(self, capsys):
        code, _, err = run(capsys, "solve", "--mode", "with-storage", "--max-T", "5", "nope.json")
        assert code == 2
        assert "error" in err

    def test_malformed_json_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "solve", "--mode", "with-storage", "--max-T", "5", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("what", ["instance", "flow"])
    def test_deeply_nested_json_is_exit_two(self, capsys, cycle4, tmp_path, what):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        argv = ["solve", "--max-T", "10", str(deep)] if what == "instance" else ["check", cycle4, str(deep)]
        code, out, err = run(capsys, *argv, "--mode", "no-storage")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {what}: invalid JSON: ")


class TestCheck:
    def test_feasible_flow(self, capsys, cycle4, tmp_path):
        flow_path = tmp_path / "wait.json"
        run(capsys, "gen", "wait-schedule", "--k", "4", "-o", str(flow_path))
        code, out, err = run(
            capsys, "check", "--mode", "with-storage", cycle4, str(flow_path)
        )
        assert code == 0
        assert out == ""
        assert "no violations" in err

    def test_violations_go_to_stdout_as_json_lines(self, capsys, cycle4, tmp_path):
        flow_path = tmp_path / "wait.json"
        run(capsys, "gen", "wait-schedule", "--k", "4", "-o", str(flow_path))
        code, out, err = run(capsys, "check", "--mode", "no-storage", cycle4, str(flow_path))
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()]
        assert records
        assert {r["kind"] for r in records} == {"strict-conservation"}
        assert {r["location"] for r in records} == {"v0"}
        assert "violation(s)" in err

    def test_structurally_inconsistent_flow(self, capsys, cycle4, tmp_path):
        flow_path = tmp_path / "odd.json"
        flow_path.write_text(
            json.dumps(
                {
                    "horizon": 5,
                    "rates": [
                        {
                            "arc": "zz",
                            "commodity": 0,
                            "pieces": [{"from": 0, "to": 1, "rate": 1}],
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        code, _, err = run(capsys, "check", "--mode", "with-storage", cycle4, str(flow_path))
        assert code == 1
        assert "invalid flow" in err

    def test_invalid_instance_is_rejected_before_checking(self, capsys, tmp_path):
        arc = {"id": "a", "tail": "s", "head": "t", "capacity": 1, "transit": 1}
        instance_path = tmp_path / "duplicate.json"
        instance_path.write_text(
            json.dumps(
                {
                    "nodes": ["s", "t"],
                    "arcs": [arc, dict(arc)],
                    "commodities": [{"source": "s", "sink": "t", "demand": 1}],
                }
            ),
            encoding="utf-8",
        )
        flow_path = tmp_path / "flow.json"
        flow_path.write_text(
            json.dumps(
                {
                    "horizon": 2,
                    "rates": [
                        {"arc": "a", "commodity": 0, "pieces": [{"from": 0, "to": 1, "rate": 1}]}
                    ],
                }
            ),
            encoding="utf-8",
        )
        code, out, err = run(
            capsys, "check", "--mode", "with-storage", str(instance_path), str(flow_path)
        )
        assert code == 1
        assert out == ""
        assert "invalid instance" in err
        assert "duplicate" in err


class TestExpand:
    def test_summary_shape(self, capsys, tmp_path):
        path = tmp_path / "cycle3.json"
        path.write_text(serialize_instance(cycle_instance(3)), encoding="utf-8")
        code, out, _ = run(capsys, "expand", "--T", "4", "--mode", "with-storage", str(path))
        assert code == 0
        assert "T=4" in out
        assert "movement copies: 9" in out
        assert "holdover arcs: 12" in out

    def test_nonpositive_horizon_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cycle3.json"
        path.write_text(serialize_instance(cycle_instance(3)), encoding="utf-8")
        code, out, err = run(capsys, "expand", "--T", "0", "--mode", "with-storage", str(path))
        assert code == 2
        assert out == ""
        assert "horizon must be a positive integer" in err


class TestGap:
    def test_csv_on_stdout(self, capsys):
        code, out, _ = run(capsys, "gap", "--k-min", "3", "--k-max", "4")
        assert code == 0
        assert out == "k,minT_with,minT_without,ratio\n3,4,5,5/4\n4,5,7,7/5\n"

    def test_csv_to_file(self, capsys, tmp_path):
        target = tmp_path / "gap.csv"
        code, out, _ = run(
            capsys, "gap", "--k-min", "3", "--k-max", "3", "--csv", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == "k,minT_with,minT_without,ratio\n3,4,5,5/4\n"

    def test_bad_range_is_exit_two(self, capsys):
        code, _, err = run(capsys, "gap", "--k-min", "5", "--k-max", "4")
        assert code == 2
        assert "error" in err

    def test_max_T_is_a_usage_error(self, capsys):
        # Every bound at least 2k - 1 printed the default's bytes and every
        # smaller one failed, so gap searches each k up to 4k, no option.
        code, _, err = run(capsys, "gap", "--k-min", "3", "--k-max", "3", "--max-T", "40")
        assert code == 2
        assert "--max-T" in err

    def test_parallel_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "gap", "--k-min", "3", "--k-max", "3", "--parallel")
        assert code == 2
        assert "--parallel" in err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "solve", "--max-T", "5", "x.json")[0] == 2

    def test_unknown_mode(self, capsys):
        assert run(capsys, "solve", "--mode", "maybe", "--max-T", "5", "x.json")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_import_starts_no_process_pool(self):
        # Importing the CLI must not pull in process or thread pools:
        # qmcflow is a single-process tool and every invocation pays
        # for what its import loads.
        script = (
            "import sys\n"
            "import qmcflow.cli\n"
            "pools = ('multiprocessing', 'concurrent')\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] in pools))\n"
        )
        src = str(Path(qmcflow.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
            check=True,
        )
        assert completed.stdout == "[]\n"
