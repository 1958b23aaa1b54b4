"""The closed-loop driver shared by every workload.

One client thread in one process sends a request, waits for the reply,
checks it against an independent reference outside the timed region, and
only then sends the next one.  A run measures until ``seconds`` of request
time have accumulated *and* at least ``min_requests`` requests completed
(the p90 latency needs at least ten samples beyond it).

Untraced runs report the end-to-end metrics.  A traced run sets up twice
over identical inputs and runs the same request sequence untraced and
traced, alternating block by block; it reports per-layer self times and
counters, the unattributed remainder, and the tracing overhead (traced
against untraced time over identical work).
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

from .spans import REQUEST, Tracer
from .workloads import WORKLOADS, Outcome, Workload

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics: name -> unit.  ``success_rate`` is the machine-read
#: form of ``error_rate`` (1 - error_rate): a metric whose healthy value is
#: 0 has no relative spread, so the result line carries the complement and
#: the human-readable table prints both.
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "items_per_s": "items/s",
    "linearity_ratio": "ratio",
    "success_rate": "share",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit.  Times and counts are
#: per request unless the name says otherwise (``*.setup_ms`` and
#: ``*compile_ms`` are per set-up, ``registry.compiles`` per run).
PER_LAYER = {
    "elog.extract_ms": "ms",
    "elog.instances": "count",
    "elog.us_per_instance": "us",
    "html.parse_ms": "ms",
    "html.parse_kb_per_s": "KB/s",
    "web.fetch_ms": "ms",
    "web.fetches": "count",
    "server.tick_self_ms": "ms",
    "server.transform_ms": "ms",
    "server.deliver_ms": "ms",
    "server.deliveries": "count",
    "server.pipes_run": "count",
    "resilience.retries": "count",
    "resilience.faults_injected": "count",
    "resilience.stale_served": "count",
    "resilience.errors_isolated": "count",
    "api.session_ms": "ms",
    "analysis.setup_ms": "ms",
    "analysis.report_hits": "count",
    "registry.compile_ms": "ms",
    "registry.compiles": "count",
    "registry.hits": "count",
    "engine.fixpoint_ms": "ms",
    "engine.rows_interned": "count",
    "engine.delta_batches": "count",
    "engine.delta_rows": "count",
    "engine.closure_compiles": "count",
    "cache.lookup_ms": "ms",
    "cache.fixpoint_hits": "count",
    "cache.fixpoint_misses": "count",
    "cache.fixpoint_hit_rate": "share",
    "mdatalog.evaluate_ms": "ms",
    "mdatalog.us_per_node": "us",
    "mdatalog.cache_hit_rate": "share",
    "xpath.translate_ms": "ms",
    "automata.compile_ms": "ms",
    "share.cache_hit_requests": "share",
    "share.write_requests": "share",
    "share.changed_pages": "share",
    "share.large_inputs": "share",
    "trace.request_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
    "error_rate": "share",
}

#: Span name -> the per-layer self-time metric it feeds (per request).
REQUEST_SPANS = {
    "elog.extract": "elog.extract_ms",
    "html.parse": "html.parse_ms",
    "web.fetch": "web.fetch_ms",
    "server.tick": "server.tick_self_ms",
    "server.transform": "server.transform_ms",
    "server.deliver": "server.deliver_ms",
    "api.session": "api.session_ms",
    "engine.fixpoint": "engine.fixpoint_ms",
    "cache.lookup": "cache.lookup_ms",
    "mdatalog.evaluate": "mdatalog.evaluate_ms",
    REQUEST: "trace.unattributed_ms",
}

#: Span name -> the per-set-up time metric it feeds.
SETUP_SPANS = {
    "analysis": "analysis.setup_ms",
    "registry.compile": "registry.compile_ms",
    "xpath.translate": "xpath.translate_ms",
    "automata.compile": "automata.compile_ms",
}

#: Counter deltas (summed over requests) reported per request.
PER_REQUEST_COUNTERS = (
    "elog.instances",
    "web.fetches",
    "server.deliveries",
    "server.pipes_run",
    "resilience.retries",
    "resilience.faults_injected",
    "resilience.stale_served",
    "resilience.errors_isolated",
    "analysis.report_hits",
    "registry.hits",
    "engine.rows_interned",
    "engine.delta_batches",
    "engine.delta_rows",
    "engine.closure_compiles",
    "cache.fixpoint_hits",
    "cache.fixpoint_misses",
)

#: Set-ups per untraced run: the run's own plus this many in fresh
#: interpreters, so every sample is cold (module-level caches empty).
#: Set-up takes milliseconds and the machine's speed drifts over seconds,
#: so the probes are spread evenly over the run's request time and the
#: median of all samples is reported.
SETUP_PROBES = 19


class Record(NamedTuple):
    latency: float
    outcome: Outcome


def environment() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def _one_request(workload: Workload, index: int, tracer: Optional[Tracer]) -> Record:
    request = workload.prepare(index)
    output = None
    error = None
    if tracer is None:
        start = time.perf_counter()
        try:
            output = workload.execute(request)
        except Exception as caught:  # a failed request is counted, not fatal
            error = caught
        latency = time.perf_counter() - start
    else:
        tracer.request = index
        with tracer.span(REQUEST) as span:
            try:
                output = workload.execute(request)
            except Exception as caught:
                error = caught
        latency = tracer.spans[span.index].end - tracer.spans[span.index].start
        tracer.request = None
    if error is not None:
        print(f"request {index} failed:", file=sys.stderr)
        traceback.print_exception(error, file=sys.stderr)
        return Record(latency, Outcome(ok=False, items=0, size=0, units=0))
    return Record(latency, workload.outcome(request, output))


def run_requests(
    workload: Workload,
    *,
    seconds: float = 0.0,
    min_requests: int = 0,
    start: int = 0,
    count: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    between: Optional[Callable[[float], None]] = None,
) -> "tuple[List[Record], Dict[str, float]]":
    """Run the closed loop from request ``start``: ``count`` requests, or
    until ``seconds`` of request time and ``min_requests`` requests (at a
    block boundary).  ``between`` is called with the request time so far
    after each request, outside the timed region.  Returns per-request
    records and summed counter deltas (counters are only read when
    tracing)."""
    records: List[Record] = []
    counters: Dict[str, float] = defaultdict(float)
    busy = 0.0
    index = start
    while True:
        done = index - start
        if count is not None:
            if done >= count:
                break
        elif busy >= seconds and done >= min_requests and done % workload.block == 0:
            break
        before = workload.counters() if tracer is not None else None
        record = _one_request(workload, index, tracer)
        if before is not None:
            for key, value in workload.counters().items():
                counters[key] += value - before.get(key, 0)
        records.append(record)
        busy += record.latency
        index += 1
        if between is not None:
            between(busy)
    return records, dict(counters)


def _percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def linearity_ratio(records: List[Record]) -> float:
    """Median per-unit time of the largest input-size class over that of
    the smallest (1.0 = linear), over the requests eligible for it; with
    several families, the geometric mean of their ratios."""
    per_class: Dict[str, Dict[int, List[float]]] = defaultdict(lambda: defaultdict(list))
    for record in records:
        outcome = record.outcome
        if outcome.ok and outcome.units and outcome.linear:
            per_class[outcome.family][outcome.size].append(record.latency / outcome.units)
    ratios = [
        statistics.median(classes[max(classes)]) / statistics.median(classes[min(classes)])
        for classes in per_class.values()
        if len(classes) >= 2
    ]
    return statistics.geometric_mean(ratios) if ratios else float("nan")


def end_to_end(records: List[Record], setup_samples: List[float]) -> Dict[str, float]:
    latencies = [record.latency for record in records]
    busy = sum(latencies)
    failed = sum(1 for record in records if not record.outcome.ok)
    items = sum(record.outcome.items for record in records if record.outcome.ok)
    return {
        "setup_s": statistics.median(setup_samples),
        "throughput_rps": len(records) / busy,
        "latency_p50_ms": _percentile(latencies, 0.5) * 1e3,
        "latency_p90_ms": _percentile(latencies, 0.9) * 1e3,
        "items_per_s": items / busy,
        "linearity_ratio": linearity_ratio(records),
        "success_rate": 1.0 - failed / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(
    records: List[Record],
    counters: Dict[str, float],
    tracer: Tracer,
    untraced_seconds: float,
    finals: Dict[str, float],
) -> Dict[str, float]:
    """The traced run's per-layer metrics (see :data:`PER_LAYER`)."""
    requests = len(records)
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    self_by_request = tracer.self_times()
    self_by_request.pop(None, None)  # set-up spans
    totals: Dict[str, float] = defaultdict(float)
    for names in self_by_request.values():
        for name, seconds in names.items():
            totals[name] += seconds
    for span_name, metric in REQUEST_SPANS.items():
        metrics[metric] = totals.get(span_name, 0.0) * 1e3 / requests
    for span_name, metric in SETUP_SPANS.items():
        metrics[metric] = tracer.total(span_name) * 1e3
    for name in PER_REQUEST_COUNTERS:
        metrics[name] = counters.get(name, 0.0) / requests

    elog_seconds = totals.get("elog.extract", 0.0)
    instances = counters.get("elog.instances", 0.0)
    metrics["elog.us_per_instance"] = elog_seconds * 1e6 / instances if instances else 0.0
    parse_seconds = totals.get("html.parse", 0.0)
    parsed_bytes = counters.get("html.bytes", 0.0)
    metrics["html.parse_kb_per_s"] = parsed_bytes / 1024.0 / parse_seconds if parse_seconds else 0.0
    lookups = counters.get("cache.fixpoint_hits", 0.0) + counters.get("cache.fixpoint_misses", 0.0)
    metrics["cache.fixpoint_hit_rate"] = (
        counters.get("cache.fixpoint_hits", 0.0) / lookups if lookups else 0.0
    )
    monadic = counters.get("mdatalog.hits", 0.0) + counters.get("mdatalog.misses", 0.0)
    metrics["mdatalog.cache_hit_rate"] = (
        counters.get("mdatalog.hits", 0.0) / monadic if monadic else 0.0
    )
    miss_seconds = 0.0
    miss_nodes = 0
    for index, record in enumerate(records):
        if record.outcome.linear and record.outcome.units:
            miss_seconds += self_by_request.get(index, {}).get("mdatalog.evaluate", 0.0)
            miss_nodes += record.outcome.units
    metrics["mdatalog.us_per_node"] = miss_seconds * 1e6 / miss_nodes if miss_nodes else 0.0

    metrics["registry.compiles"] = finals.get("registry.compiles", 0.0)
    metrics["share.cache_hit_requests"] = _share(records, lambda o: o.cache_hit)
    metrics["share.write_requests"] = _share(records, lambda o: o.write)
    fetched = counters.get("web.fetches", 0.0)
    metrics["share.changed_pages"] = counters.get("web.changed", 0.0) / fetched if fetched else 0.0
    largest = max((record.outcome.size for record in records), default=0)
    metrics["share.large_inputs"] = _share(records, lambda o: o.size == largest and largest > 0)

    traced_seconds = sum(record.latency for record in records)
    metrics["trace.request_ms"] = traced_seconds * 1e3 / requests
    metrics["trace.overhead_pct"] = (traced_seconds / untraced_seconds - 1.0) * 100.0
    metrics["error_rate"] = _share(records, lambda o: not o.ok)
    return metrics


def _share(records: List[Record], predicate) -> float:
    return sum(1 for record in records if predicate(record.outcome)) / len(records)


def self_time_table(metrics: Dict[str, float]) -> List[tuple]:
    """(layer metric, ms per request, share of the traced request time)."""
    total = metrics["trace.request_ms"]
    rows = []
    for metric in REQUEST_SPANS.values():
        value = metrics[metric]
        rows.append((metric, value, value / total if total else 0.0))
    return sorted(rows, key=lambda row: -row[1])


def timed_setup(workload: Workload, tracer: Optional[Tracer] = None) -> float:
    start = time.perf_counter()
    workload.setup(tracer)
    return time.perf_counter() - start


def probe_setup(name: str, seed: int, tiny: bool) -> float:
    """One cold set-up in a fresh interpreter; returns its seconds."""
    code = (
        "from lixtobench.harness import _probe_main; "
        f"_probe_main({name!r}, {seed!r}, {tiny!r})"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    completed = subprocess.run(
        [sys.executable, "-c", code],
        cwd=str(ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def _probe_main(name: str, seed: int, tiny: bool) -> None:
    workload = WORKLOADS[name](seed, tiny=tiny)
    print(repr(timed_setup(workload)))


class RunResult(NamedTuple):
    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    table: List[tuple]


def run_untraced(
    name: str,
    seed: int,
    seconds: float,
    *,
    tiny: bool = False,
    min_requests: int = 100,
    probes: int = SETUP_PROBES,
) -> RunResult:
    workload = WORKLOADS[name](seed, tiny=tiny)
    setup_samples = [timed_setup(workload)]
    due = [seconds * (k + 0.5) / probes for k in range(probes)]

    def probe_when_due(busy: float) -> None:
        while due and busy >= due[0]:
            due.pop(0)
            setup_samples.append(probe_setup(name, seed, tiny))

    records, _ = run_requests(
        workload, seconds=seconds, min_requests=min_requests, between=probe_when_due
    )
    setup_samples += [probe_setup(name, seed, tiny) for _ in due]
    metrics = end_to_end(records, setup_samples)
    failed = sum(1 for record in records if not record.outcome.ok)
    return RunResult(len(records), failed, metrics, dict(END_TO_END), [])


def run_traced(
    name: str,
    seed: int,
    seconds: float,
    *,
    tiny: bool = False,
    min_requests: int = 100,
    spans_path: Optional[str] = None,
) -> RunResult:
    """Two set-ups over identical inputs, one untraced and one traced, run
    block by block in alternation, so drifting machine speed affects both
    alike and their time ratio is the tracing overhead."""
    untraced = WORKLOADS[name](seed, tiny=tiny)
    untraced.setup(None)
    tracer = Tracer()
    workload = WORKLOADS[name](seed, tiny=tiny)
    with tracer.span("setup"):
        workload.setup(tracer)
    baseline: List[Record] = []
    records: List[Record] = []
    counters: Dict[str, float] = defaultdict(float)
    while sum(r.latency for r in baseline) < seconds / 2 or len(baseline) < min_requests:
        start = len(baseline)
        baseline += run_requests(untraced, start=start, count=workload.block)[0]
        more, deltas = run_requests(workload, start=start, count=workload.block, tracer=tracer)
        records += more
        for key, value in deltas.items():
            counters[key] += value
    untraced_seconds = sum(record.latency for record in baseline)
    metrics = per_layer(records, counters, tracer, untraced_seconds, workload.counters())
    if spans_path is not None:
        tracer.dump(spans_path)
    failed = sum(1 for record in records + baseline if not record.outcome.ok)
    return RunResult(
        len(records) + len(baseline), failed, metrics, dict(PER_LAYER), self_time_table(metrics)
    )
