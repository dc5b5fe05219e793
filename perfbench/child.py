"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py, which reads the JSON object this prints last. The
child imports qmcflow from the checkout, generates and writes the
workload's inputs (set-up), runs one untimed warm-up operation, then
runs whole rounds of the workload's operations until --seconds have
passed, timing each call of qmcflow.cli.main and checking its output
outside the timed region.

With --trace 1 the rounds alternate between untraced and traced, so the
same run yields the per-layer metrics and the tracing overhead; the
spans are written to --trace-file.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qmcflow import cli  # noqa: E402  (set-up time starts before this import)

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_operation(operation) -> tuple[float, str | None]:
    """Latency in seconds and the check's problem, if any."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(operation.argv)
            latency = time.perf_counter() - start
        return latency, operation.check(code, out.getvalue())
    except Exception as exc:  # a crash is a failed operation, not a failed run
        return 0.0, f"{' '.join(operation.argv)}: raised {exc!r}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.trace_file else None
    if tracer:
        tracer.install()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    operations, warmup = workloads.WORKLOADS[args.workload](workdir, args.seed)
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0
    setup_spans = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.uninstall()

    _, warmup_problem = run_operation(warmup)
    problems = [warmup_problem] if warmup_problem else []

    latencies: list[float] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    failed = 0
    phases = [("setup", 0)]
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if traced:
            phases.append((f"round-{len(walls[False]) + len(walls[True])}", len(tracer.spans)))
            tracer.install()
        wall = 0.0
        for operation in operations:
            latency, problem = run_operation(operation)
            wall += latency
            latencies.append(latency)
            if problem:
                failed += 1
                problems.append(problem)
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)
        rounds = len(walls[False]) + len(walls[True])
        if time.perf_counter() - started >= args.seconds and (tracer is None or rounds >= 2):
            break

    result = {
        "setup_end": setup_end,
        "attempted": len(latencies),
        "failed": failed,
        "warmup_ok": warmup_problem is None,
        "problems": problems[:10],
        "latencies": latencies,
        "round_walls": walls[False],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        first_traced = phases[1][1]
        result["layers"] = tracing.layer_metrics(
            tracer.spans, first_traced, len(walls[True]), (0, setup_spans)
        )
        result["layers"]["trace.overhead_pct"] = 100 * (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        )
        result["layers"]["trace.spans"] = (len(tracer.spans) - first_traced) / len(walls[True])
        result["traced_walls"] = walls[True]
        tracer.write(args.trace_file, phases)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
