"""Compile-once rule plans on deep-recursion and same-generation workloads.

The plan layer (repro/datalog/plan.py) compiles each rule once, memoises
join orders per size bucket and runs slot-based rows through specialised
executor closures.  These benchmarks time it on the ROADMAP's wider,
non-tree workloads — deep-recursion graph reachability at 10^5+ edges and
the classic same-generation program — and check that bucket memoisation
keeps the number of compiled join plans small.  Headline numbers land in
BENCH_engine.json.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from repro.datalog import SemiNaiveEngine, parse_program

REACH_PROGRAM_TEXT = """
reach(Y) :- source(X), edge(X, Y).
reach(Y) :- reach(X), edge(X, Y).
"""

SG_PROGRAM_TEXT = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).
"""


def _chain_reach_workload(length):
    """Single-source reachability over a chain: one new fact per iteration —
    the purest deep-recursion / allocator-pressure shape."""
    program = parse_program(REACH_PROGRAM_TEXT)
    database = {"edge": {(i, i + 1) for i in range(length)}, "source": {(0,)}}
    return program, database


def _random_reach_workload(edge_count, seed=7):
    """Reachability over a 90%-chain / 10%-random graph at ``edge_count``
    edges: still recursion-deep, with wider deltas."""
    chain_length = (edge_count * 9) // 10
    node_count = edge_count + edge_count // 5
    rng = random.Random(seed)
    edges = {(i, i + 1) for i in range(chain_length)}
    while len(edges) < edge_count:
        edges.add((rng.randrange(node_count), rng.randrange(node_count)))
    program = parse_program(REACH_PROGRAM_TEXT)
    return program, {"edge": edges, "source": {(0,)}}


def _same_generation_workload(depth):
    """sg over a balanced binary tree of the given depth (non-tree-shaped
    IDB: sg is binary and quadratic in the leaves)."""
    parent = set()
    sibling = set()
    nodes = [0]
    next_id = 1
    for _ in range(depth):
        grown = []
        for node in nodes:
            left, right = next_id, next_id + 1
            next_id += 2
            parent.add((left, node))
            parent.add((right, node))
            sibling.add((left, right))
            grown.extend((left, right))
        nodes = grown
    program = parse_program(SG_PROGRAM_TEXT)
    return program, {"parent": parent, "sibling": sibling}


def _samples(run, repeats=3):
    """All wall-clock samples plus the last result (median for the recorded
    trajectory, min for the printed number)."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return times, result


def _time_planned(program, database, bench_record, name):
    engine = SemiNaiveEngine(program)
    times, result = _samples(lambda: engine.evaluate(database))
    bench_record(f"{name}_planned_s", statistics.median(times))
    print(f"\n{name}: planned {min(times):.4f} s")
    return result


def test_planned_deep_chain_reachability(quick, bench_record):
    length = 20_000 if quick else 100_000
    program, database = _chain_reach_workload(length)
    result = _time_planned(program, database, bench_record, f"reach_chain_{length}")
    assert len(result["reach"]) == length


def test_planned_same_generation(quick, bench_record):
    depth = 6 if quick else 8
    program, database = _same_generation_workload(depth)
    result = _time_planned(
        program, database, bench_record, f"same_generation_depth_{depth}"
    )
    assert result["sg"]  # sanity: the recursion actually fired


def test_planned_random_graph_reachability(quick, bench_record):
    edge_count = 20_000 if quick else 100_000
    program, database = _random_reach_workload(edge_count)
    result = _time_planned(
        program, database, bench_record, f"reach_random_{edge_count}"
    )
    assert len(result["reach"]) > edge_count // 2


def test_plan_cache_stays_small_across_fixpoint():
    # Bucket memoisation: a 100k-iteration fixpoint must compile only a
    # handful of join plans per rule (one per crossed size bucket), not one
    # per iteration.
    program, database = _chain_reach_workload(5_000)
    engine = SemiNaiveEngine(program)
    engine.evaluate(database)
    plan_counts = engine.plan_memo_counts()
    assert 0 < max(plan_counts) <= 32
    print(f"\ncompiled join plans per rule: {plan_counts}")


@pytest.mark.benchmark(group="rule-plans")
def test_benchmark_planned_chain_reach(benchmark):
    program, database = _chain_reach_workload(10_000)
    engine = SemiNaiveEngine(program)
    benchmark(engine.evaluate, database)

