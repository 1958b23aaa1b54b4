"""Run the Lixto end-to-end benchmark.

    python3 lixtobench/run.py --workload ebay_extract --seed 1 --seconds 20 --trace 0
    python3 lixtobench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the traced breakdown and reports per-layer metrics instead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report.  The full result (environment, seed, the workload's
reason for being chosen, every metric with its unit) is also written to
``lixtobench/results/``, with the spans of a traced run beside it.

The program under test is imported from ``src/`` of the checkout this file
sits in.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "lixtobench" / "results"
NAMES = ("ebay_extract", "server_refresh", "tree_query", "datalog_closure")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_harness():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from lixtobench import harness
    except ImportError as error:
        print(f"cannot import the program under test from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        raise SystemExit(2)
    return harness


def _format(value: float) -> str:
    return f"{value:.6g}" if math.isfinite(value) else str(value)


def run_one(args) -> dict:
    harness = _import_harness()
    workload = harness.WORKLOADS[args.workload]
    if args.trace:
        RESULTS.mkdir(exist_ok=True)
        stem = RESULTS / f"{args.workload}-seed{args.seed}-trace1"
        result = harness.run_traced(args.workload, args.seed, args.seconds,
                                    spans_path=str(stem) + "-spans.jsonl")
    else:
        result = harness.run_untraced(args.workload, args.seed, args.seconds)
    env = harness.environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"why: {workload.why}")
    print("env: " + json.dumps(env))
    print(f"requests {result.attempted}  failed {result.failed}")
    for name, value in result.metrics.items():
        print(f"  {name:<28} {_format(value):>14} {result.units[name]}")
    if not args.trace:
        error_rate = 1.0 - result.metrics["success_rate"]
        print(f"  {'error_rate':<28} {_format(error_rate):>14} share")
    else:
        print("self time per request, by layer:")
        for metric, ms, share in result.table:
            print(f"  {metric:<28} {ms:>10.3f} ms {share:>7.1%}")
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": workload.why,
        "env": env,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": result.units[name]}
            for name, value in result.metrics.items()
        },
        "self_time_table": [list(row) for row in result.table],
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": document["metrics"],
    }


def run_all(args) -> dict:
    """Every workload in its own interpreter (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    args = _arguments(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
