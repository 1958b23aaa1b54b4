"""Indexed vs nested-loop joins in the generic semi-naive engine.

The seed engine matched every body literal by scanning the whole relation
per partial substitution; the engine now probes indexes on the
currently-bound argument positions (repro/datalog/columns.py) and greedily
reorders body literals by selectivity.  This benchmark quantifies the gap on
(a) the tree workload the ablation uses and (b) a classic transitive-closure
program, and asserts the indexed join is strictly faster — the seed's
nested-loop evaluator is kept as the reference oracle
(``repro.datalog.reference_evaluate``), which is the "before" series.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import scaling_tree, wide_program
from repro.datalog import SemiNaiveEngine, parse_program, reference_evaluate, tree_database

TC_PROGRAM_TEXT = """
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- reach(X, Z), edge(Z, Y).
"""


def _chain_edges(length):
    return {"edge": {(i, i + 1) for i in range(length)}}


def _tree_workload(size):
    program = wide_program(24).to_datalog_program()
    database = tree_database(scaling_tree(size, seed=91))
    return program, database


def test_indexed_join_beats_nested_loop_on_tree_workload(quick, best_of, bench_record):
    size = 800 if quick else 3_000
    program, database = _tree_workload(size)
    indexed_engine = SemiNaiveEngine(program)

    indexed_time, indexed_result = best_of(lambda: indexed_engine.evaluate(database))
    nested_time, nested_result = best_of(
        lambda: reference_evaluate(program, database), repeats=1
    )

    assert indexed_result == nested_result
    bench_record(f"tree_wide_{size}_planned_s", indexed_time)
    bench_record(f"tree_wide_{size}_nested_loop_s", nested_time)
    print(
        f"\nIndexed join  {indexed_time:.4f} s vs nested-loop {nested_time:.4f} s "
        f"(speed-up {nested_time / max(indexed_time, 1e-9):.1f}x, {size} nodes, "
        f"|P|={program.size()})"
    )
    assert indexed_time < nested_time


def test_indexed_join_beats_nested_loop_on_transitive_closure(
    quick, best_of, bench_record
):
    length = 60 if quick else 150
    program = parse_program(TC_PROGRAM_TEXT)
    database = _chain_edges(length)
    indexed_engine = SemiNaiveEngine(program)

    indexed_time, indexed_result = best_of(lambda: indexed_engine.evaluate(database))
    nested_time, nested_result = best_of(
        lambda: reference_evaluate(program, database), repeats=1
    )

    assert indexed_result == nested_result
    expected_pairs = length * (length + 1) // 2
    assert len(indexed_result["reach"]) == expected_pairs
    bench_record(f"tc_chain_{length}_planned_s", indexed_time)
    bench_record(f"tc_chain_{length}_nested_loop_s", nested_time)
    print(
        f"\nTransitive closure (chain {length})  indexed {indexed_time:.4f} s vs "
        f"nested-loop {nested_time:.4f} s "
        f"(speed-up {nested_time / max(indexed_time, 1e-9):.1f}x)"
    )
    assert indexed_time < nested_time


def test_query_cache_avoids_recomputation(quick):
    size = 800 if quick else 3_000
    program, database = _tree_workload(size)
    engine = SemiNaiveEngine(program)

    start = time.perf_counter()
    first = engine.query(database, "hit")
    cold = time.perf_counter() - start
    start = time.perf_counter()
    second = engine.query(database, "hit")
    warm = time.perf_counter() - start

    assert first == second
    print(f"\nQuery cache  cold {cold:.4f} s vs warm {warm:.6f} s")
    assert warm < cold


@pytest.mark.benchmark(group="indexed-join")
def test_benchmark_indexed_join(benchmark):
    program, database = _tree_workload(1_000)
    engine = SemiNaiveEngine(program)
    benchmark(engine.evaluate, database)


@pytest.mark.benchmark(group="indexed-join")
def test_benchmark_nested_loop_join(benchmark):
    program, database = _tree_workload(1_000)
    benchmark(reference_evaluate, program, database)
