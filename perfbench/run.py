"""qmcflow benchmark: one workload, one run, metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cycle-family --seed 1 --seconds 20 --trace 0

Workloads, metrics, units and bounds are declared in BENCHMARK.json.
Each run starts a fresh single-threaded child interpreter (child.py)
with a fixed PYTHONHASHSEED and assertions on. With --trace 0 it reports
the end-to-end metrics; set-up is repeated in extra children that stop
after set-up, and setup_s is the median over all of them. With
--trace 1 it reports the per-layer metrics of a traced run instead.
The last line of standard output is the result object; the lines
before it give every metric by name and unit for a human reader.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Children that only set up, on top of the measuring child.
SETUP_SAMPLES = 4
# A run must end within 180 s; the measuring child gets what is left.
RUN_LIMIT_S = 170
SETUP_LIMIT_S = 30


def _child(arguments: list[str], timeout: float) -> tuple[float, dict]:
    """Run child.py; returns its start time (monotonic) and its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONOPTIMIZE", None)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *arguments],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise SystemExit(f"child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return started, json.loads(proc.stdout.splitlines()[-1])


def _metrics(declared: list[dict], values: dict) -> dict:
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        if metric["unit"] == "count" and float(value).is_integer():
            value = int(value)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qmcflow" / "__init__.py").is_file():
        print(f"error: no qmcflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    run_started = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    def child(slot: int, extra: list[str], timeout: float) -> tuple[float, dict]:
        # Work directories are reused from run to run rather than deleted:
        # writing into a directory that was just deleted took three times
        # as long, and by an amount that varied from run to run.
        workdir = OUT / f"work-{args.workload}-{slot}"
        return _child(common + ["--workdir", str(workdir)] + extra, timeout)

    setups = []
    extra = []
    if args.trace:
        extra = ["--trace-file", str(OUT / f"trace-{tag}.jsonl")]
    else:
        for slot in range(1, SETUP_SAMPLES + 1):
            started, result = child(slot, ["--setup-only"], SETUP_LIMIT_S)
            setups.append(result["setup_end"] - started)
    remaining = RUN_LIMIT_S - (time.monotonic() - run_started)
    started, result = child(0, extra, remaining)
    setups.append(result["setup_end"] - started)

    result["setups"] = setups
    (OUT / f"raw-{tag}.json").write_text(json.dumps(result) + "\n", encoding="utf-8")
    latencies = result["latencies"]
    values = {
        "wall_s": statistics.median(result["round_walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "op_p50_ms": 1000 * statistics.median(latencies),
    }
    if args.trace:
        values.update(result["layers"])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = _metrics(declared, values)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  operations: {result['attempted']} attempted, {result['failed']} failed, "
          f"{len(result['round_walls']) + len(result.get('traced_walls', []))} rounds")
    walls = ", ".join(f"{wall:.3f}" for wall in result["round_walls"])
    print(f"  untraced round walls: {walls} s")
    if args.trace:
        walls = ", ".join(f"{wall:.3f}" for wall in result["traced_walls"])
        print(f"  traced round walls: {walls} s")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    if len(latencies) >= 100:
        # Only with at least ten samples beyond it is a p90 a tail.
        p90 = 1000 * statistics.quantiles(latencies, n=10)[-1]
        print(f"  {'op_p90_ms':32s} {p90:>14.6g} ms  ({len(latencies)} operations)")

    line = {
        "correct": result["failed"] == 0 and result["warmup_ok"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(line, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
