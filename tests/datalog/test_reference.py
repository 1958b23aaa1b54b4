"""The engine against the nested-loop reference oracle on targeted rules.

Each case pins one join feature the compiled plans handle specially —
hoisted builtins and negation, repeated variables, constants in probe
keys, cartesian products, unbound filter variables — and checks
:class:`~repro.datalog.engine.SemiNaiveEngine` computes exactly what
:func:`~repro.datalog.reference.reference_evaluate` computes.  The random
program suites live in ``tests/properties/test_indexed_join_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.datalog import SemiNaiveEngine, parse_program, reference_evaluate
from repro.datalog.engine import EvaluationError


def _engine_and_oracle(program_text, database):
    program = parse_program(program_text)
    return (
        SemiNaiveEngine(program).evaluate(database),
        reference_evaluate(program, database),
    )


def test_transitive_closure_same_result():
    engine, oracle = _engine_and_oracle(
        """
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
        """,
        {"edge": {(i, i + 1) for i in range(30)}},
    )
    assert engine == oracle
    assert len(oracle["reach"]) == 30 * 31 // 2


def test_hoisted_builtin_prunes_mid_join():
    # The builtin's variables are bound after the first literal; the engine
    # applies it before joining the second literal, the oracle only at the
    # end — the result must be identical.
    engine, oracle = _engine_and_oracle(
        "pair(X, Y) :- item(X, P), lt(P, 10), link(X, Y).",
        {
            "item": {("a", 5), ("b", 20), ("c", 9)},
            "link": {("a", 1), ("b", 2), ("c", 3)},
        },
    )
    assert engine == oracle
    assert oracle["pair"] == {("a", 1), ("c", 3)}


def test_hoisted_negation_agrees_with_filter_at_end():
    engine, oracle = _engine_and_oracle(
        """
        ok(X) :- node(X), not banned(X).
        good(X, Y) :- node(X), not banned(X), link(X, Y).
        """,
        {
            "node": {(1,), (2,), (3,)},
            "banned": {(2,)},
            "link": {(1, 10), (2, 20), (3, 30)},
        },
    )
    assert engine == oracle
    assert oracle["good"] == {(1, 10), (3, 30)}


def test_repeated_variable_in_atom():
    engine, oracle = _engine_and_oracle(
        "loop(X) :- edge(X, X).", {"edge": {(1, 1), (1, 2), (3, 3)}}
    )
    assert engine == oracle
    assert oracle["loop"] == {(1,), (3,)}


def test_constants_probe_the_index():
    engine, oracle = _engine_and_oracle(
        'gold(X) :- labelled(X, "gold").',
        {"labelled": {(1, "gold"), (2, "silver"), (3, "gold")}},
    )
    assert engine == oracle
    assert oracle["gold"] == {(1,), (3,)}


def test_unbound_builtin_variable_raises_on_both_paths():
    # Safety does not cover variables that occur only in builtins; grounding
    # them must surface an EvaluationError rather than silently dropping.
    program = parse_program("p(X) :- q(X), lt(Y, 10).")
    with pytest.raises(EvaluationError):
        SemiNaiveEngine(program).evaluate({"q": {(1,)}})
    with pytest.raises(EvaluationError):
        reference_evaluate(program, {"q": {(1,)}})


def test_cartesian_product_rule():
    engine, oracle = _engine_and_oracle(
        "pair(X, Y) :- left(X), right(Y).",
        {"left": {(1,), (2,)}, "right": {("a",), ("b",)}},
    )
    assert engine == oracle
    assert oracle["pair"] == {(1, "a"), (1, "b"), (2, "a"), (2, "b")}


def test_mixed_arity_facts_match_only_same_arity_atoms():
    engine, oracle = _engine_and_oracle(
        "p(X) :- e(X, Y).", {"e": {(1, 2), (3,), (4, 5, 6)}}
    )
    assert engine == oracle
    assert oracle["p"] == {(1,)}


def test_reference_leaves_its_input_untouched():
    database = {"edge": {(1, 2), (2, 3)}}
    program = parse_program(
        """
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
        """
    )
    result = reference_evaluate(program, database)
    assert database == {"edge": {(1, 2), (2, 3)}}
    assert result["reach"] == {(1, 2), (2, 3), (1, 3)}
    result["edge"].add((9, 9))
    assert (9, 9) not in database["edge"]
