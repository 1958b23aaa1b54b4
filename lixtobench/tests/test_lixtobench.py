"""The benchmark's own tests: deterministic inputs, complete tiny runs.

Run with:  PYTHONPATH=src python -m pytest lixtobench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from lixtobench import harness
from lixtobench.spans import Tracer
from lixtobench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAMES = sorted(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs(name):
    first = WORKLOADS[name](7, tiny=True).input_bytes(25)
    second = WORKLOADS[name](7, tiny=True).input_bytes(25)
    other = WORKLOADS[name](8, tiny=True).input_bytes(25)
    assert first == second
    assert first != other


@pytest.mark.parametrize("name", NAMES)
def test_tiny_untraced_run_emits_every_end_to_end_metric(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = harness.run_untraced(name, 3, 0.0, tiny=True, min_requests=1, probes=1)
    assert result.failed == 0
    assert set(result.metrics) == set(harness.END_TO_END)
    assert result.units == harness.END_TO_END
    for metric, value in result.metrics.items():
        assert math.isfinite(value) and value > 0, metric
    assert result.metrics["success_rate"] == 1.0  # error_rate == 0


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_emits_every_per_layer_metric(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = harness.run_traced(name, 3, 0.0, tiny=True, min_requests=1)
    assert result.failed == 0
    assert set(result.metrics) == set(harness.PER_LAYER)
    assert all(math.isfinite(value) for value in result.metrics.values())
    assert result.metrics["error_rate"] == 0.0
    if name in ("tree_query", "datalog_closure"):
        assert result.metrics["elog.extract_ms"] == 0.0
        assert result.metrics["html.parse_ms"] == 0.0
    else:
        assert result.metrics["elog.extract_ms"] > 0.0


def test_closure_writes_change_answers_and_stale_answers_fail():
    """Every write changes the reference answer, so an engine or fixpoint
    cache that ignored it would be caught: replaying the answer from before
    the write must fail the check."""
    workload = WORKLOADS["datalog_closure"](5, tiny=True)
    workload.setup(None)
    previous = {}
    writes = 0
    for index in range(40):
        request = workload.prepare(index)
        db = request[0]
        output = workload.execute(request)
        outcome = workload.outcome(request, output)
        assert outcome.ok, index
        answer = output.tuples(db.family)
        if outcome.write:
            writes += 1
            assert not db.reference.matches(previous[db.family, db.rank])
        previous[db.family, db.rank] = answer
    assert writes > 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = sorted(tracer.spans, key=lambda span: span.start)
    assert inner.parent == tracer.spans.index(outer)
    self_times = tracer.self_times()[None]
    assert self_times["inner"] == pytest.approx(inner.end - inner.start)
    assert self_times["outer"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )


def test_command_fails_without_the_program(tmp_path):
    """Beside only BENCHMARK.json and the benchmark, there is nothing to
    measure: the command must fail without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "lixtobench", tmp_path / "lixtobench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable, *command[1:], "--workload", "ebay_extract", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
