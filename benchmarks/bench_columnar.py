"""Columnar semi-naive evaluation on the recursive join workloads.

The engine's one relation store (repro/datalog/columns.py) keeps each
relation as an append-only interned row array with per-column posting
sets and composite full-key indexes; semi-naive deltas are row-id range
windows over those arrays.  These workloads time that path on chain and
random-graph reachability and on same-generation, and record
``columnar_*`` workloads into BENCH_engine.json together with the storage
counters ``engine_info()`` reports.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.datalog import SemiNaiveEngine, parse_program

REACH_PROGRAM_TEXT = """
reach(Y) :- source(X), edge(X, Y).
reach(Y) :- reach(X), edge(X, Y).
"""

SG_PROGRAM_TEXT = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).
"""


def _chain_workload(length):
    program = parse_program(REACH_PROGRAM_TEXT)
    return program, {"edge": {(i, i + 1) for i in range(length)}, "source": {(0,)}}


def _random_reach_workload(edge_count, seed=7):
    chain_length = (edge_count * 9) // 10
    node_count = edge_count + edge_count // 5
    rng = random.Random(seed)
    edges = {(i, i + 1) for i in range(chain_length)}
    while len(edges) < edge_count:
        edges.add((rng.randrange(node_count), rng.randrange(node_count)))
    return parse_program(REACH_PROGRAM_TEXT), {"edge": edges, "source": {(0,)}}


def _same_generation_workload(depth):
    parent, sibling = set(), set()
    nodes, next_id = [0], 1
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
    return parse_program(SG_PROGRAM_TEXT), {"parent": parent, "sibling": sibling}


def _samples(run, repeats=3):
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return times, result


def _time_columnar(program, database, bench_record, name):
    engine = SemiNaiveEngine(program)
    times, result = _samples(lambda: engine.evaluate(database))
    bench_record(f"columnar_{name}_s", statistics.median(times))
    print(f"\n{name}: columnar {min(times):.4f} s")
    return result


def test_columnar_chain_reach(quick, bench_record):
    length = 20_000 if quick else 100_000
    program, database = _chain_workload(length)
    result = _time_columnar(program, database, bench_record, f"reach_chain_{length}")
    assert len(result["reach"]) == length


def test_columnar_random_reach(quick, bench_record):
    edge_count = 20_000 if quick else 100_000
    program, database = _random_reach_workload(edge_count)
    result = _time_columnar(program, database, bench_record, f"reach_random_{edge_count}")
    assert len(result["reach"]) > edge_count // 2


def test_columnar_same_generation(quick, bench_record):
    depth = 6 if quick else 8
    program, database = _same_generation_workload(depth)
    result = _time_columnar(
        program, database, bench_record, f"same_generation_depth_{depth}"
    )
    assert result["sg"]


def test_columnar_storage_counters_track_the_fixpoint(bench_record):
    """The storage counters surfaced by ``engine_info()`` reflect the
    batched loop: one delta window per advanced watermark, every derived
    row counted, no per-iteration delta rebuild anywhere."""
    program, database = _chain_workload(2_000)
    engine = SemiNaiveEngine(program)
    result = engine.evaluate(database)
    info = engine.engine_info()
    assert info.rows_interned >= len(result["reach"]) + len(database["edge"])
    assert info.delta_batches >= 1_999
    assert info.delta_rows >= 2_000
    assert info.max_delta_batch >= 1
    bench_record("columnar_chain_2000_delta_batches", float(info.delta_batches))
