"""Tests for the semi-naive engine, stratification and LTUR solver."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.datalog import (
    GroundHornSolver,
    SemiNaiveEngine,
    StratificationError,
    is_stratifiable,
    parse_program,
    query_program,
    solve_ground_program,
    stratify,
)
from repro.datalog.engine import EvaluationError


def test_transitive_closure():
    program = parse_program(
        """
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
        """
    )
    database = {"edge": {(1, 2), (2, 3), (3, 4), (5, 6)}}
    reach = query_program(program, database, "reach")
    assert (1, 4) in reach
    assert (1, 3) in reach
    assert (5, 6) in reach
    assert (4, 1) not in reach
    assert len(reach) == 7


def test_same_generation():
    program = parse_program(
        """
        sg(X, Y) :- sibling(X, Y).
        sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).
        """
    )
    database = {
        "sibling": {("a", "b")},
        "parent": {("c", "a"), ("d", "b"), ("e", "c"), ("f", "d")},
    }
    sg = query_program(program, database, "sg")
    assert ("c", "d") in sg
    assert ("e", "f") in sg
    assert ("a", "d") not in sg


def test_stratified_negation():
    program = parse_program(
        """
        reachable(X) :- source(X).
        reachable(Y) :- reachable(X), edge(X, Y).
        unreachable(X) :- node(X), not reachable(X).
        """
    )
    database = {
        "source": {(1,)},
        "edge": {(1, 2), (2, 3)},
        "node": {(1,), (2,), (3,), (4,)},
    }
    result = SemiNaiveEngine(program).evaluate(database)
    assert result["unreachable"] == {(4,)}
    assert result["reachable"] == {(1,), (2,), (3,)}


def test_unstratifiable_program_rejected():
    program = parse_program(
        """
        p(X) :- node(X), not q(X).
        q(X) :- node(X), not p(X).
        """
    )
    assert not is_stratifiable(program)
    with pytest.raises(StratificationError):
        SemiNaiveEngine(program)


def test_stratify_orders_negation_below():
    program = parse_program(
        """
        a(X) :- base(X).
        b(X) :- node(X), not a(X).
        c(X) :- b(X).
        """
    )
    strata = stratify(program)
    flat = [[rule.head.predicate for rule in stratum] for stratum in strata]
    assert flat[0] == ["a"]
    assert "b" in flat[1]


def test_builtin_comparisons_filter():
    program = parse_program("cheap(X) :- item(X, P), lt(P, 10).")
    database = {"item": {("a", 5), ("b", 20), ("c", 9)}}
    result = query_program(program, database, "cheap")
    assert result == {("a",), ("c",)}


def test_negated_builtin():
    program = parse_program("other(X) :- item(X, P), not lt(P, 10).")
    database = {"item": {("a", 5), ("b", 20)}}
    assert query_program(program, database, "other") == {("b",)}


def test_unsafe_rule_rejected_at_construction():
    program = parse_program("p(X, Y) :- q(X).")
    with pytest.raises(ValueError):
        SemiNaiveEngine(program)


def test_builtin_wrong_arity_rejected_at_construction():
    # The seed engine silently filtered these substitutions away; wrong-arity
    # builtins must fail loudly instead of masking user errors.
    for text in ("p(X) :- q(X), lt(X).", "p(X) :- q(X), lt(X, X, X)."):
        with pytest.raises(EvaluationError):
            SemiNaiveEngine(parse_program(text))


def test_negated_builtin_wrong_arity_rejected_at_construction():
    with pytest.raises(EvaluationError):
        SemiNaiveEngine(parse_program("p(X) :- q(X), not lt(X)."))


def test_query_caches_fixpoint_per_database_content():
    program = parse_program("p(X) :- q(X).")
    engine = SemiNaiveEngine(program)
    database = {"q": {(1,)}}
    calls = []
    original = engine.evaluate
    engine.evaluate = lambda db: calls.append(1) or original(db)
    assert engine.query(database, "p") == {(1,)}
    assert engine.query(database, "p") == {(1,)}
    assert engine.query(database, "q") == {(1,)}
    assert len(calls) == 1  # one evaluation serves repeated queries
    # Mutating the database (fact counts change) invalidates the cache.
    database["q"].add((2,))
    assert engine.query(database, "p") == {(1,), (2,)}
    assert len(calls) == 2
    # Swapping one fact for another keeps the size but must also invalidate.
    database["q"].discard((2,))
    database["q"].add((3,))
    assert engine.query(database, "p") == {(1,), (3,)}
    assert len(calls) == 3
    # A database with different content is evaluated afresh...
    assert engine.query({"q": {(5,)}}, "p") == {(5,)}
    assert len(calls) == 4
    # ...but an equal-content rebuild hits the cache (content-keyed).
    assert engine.query({"q": {(5,)}}, "p") == {(5,)}
    assert len(calls) == 4


def test_fixpoint_result_is_immutable_view():
    program = parse_program("p(X) :- q(X).")
    engine = SemiNaiveEngine(program)
    database = {"q": {(1,)}}
    # query() returns an immutable frozenset view (no per-call copy); callers
    # that want a mutable extension must take an explicit set() copy.
    first = engine.query(database, "p")
    assert isinstance(first, frozenset)
    with pytest.raises(AttributeError):
        first.add((99,))
    mutable = set(first)
    mutable.add((99,))
    assert engine.query(database, "p") == {(1,)}
    result = engine.fixpoint(database)
    # Repeated queries share the same view object instead of copying.
    assert result.query("p") is result.query("p")
    assert result.query("missing") == frozenset()
    # facts() still hands out a fresh mutation-safe snapshot.
    snapshot = result.facts()
    snapshot["p"].add((99,))
    assert result.query("p") == {(1,)}
    assert "p" in result and result.predicates() >= {"p", "q"}


def test_constants_in_rules():
    program = parse_program('special(X) :- labelled(X, "gold").')
    database = {"labelled": {(1, "gold"), (2, "silver")}}
    assert query_program(program, database, "special") == {(1,)}


def test_empty_relation_yields_empty_result():
    program = parse_program("p(X) :- q(X), r(X).")
    database = {"q": {(1,)}, "r": set()}
    assert query_program(program, database, "p") == set()


def test_ltur_solver_basic_propagation():
    solver = GroundHornSolver()
    solver.add_rule("c", ("a", "b"))
    solver.add_rule("d", ("c",))
    solver.add_rule("e", ("missing",))
    solver.add_fact("a")
    solver.add_fact("b")
    result = solver.solve()
    assert result == {"a", "b", "c", "d"}
    assert solver.atom_count() == 6
    assert solver.rule_count() == 3


def test_ltur_rule_with_empty_body_is_fact():
    result = solve_ground_program([("p", ()), ("q", ("p",))])
    assert result == {"p", "q"}


def test_ltur_handles_duplicate_body_atoms():
    # The same atom occurring twice in a body must require only one derivation.
    result = solve_ground_program([("p", ("a", "a"))], facts=["a"])
    assert result == {"a", "p"}


def test_ltur_agrees_with_seminaive_on_ground_horn():
    program = parse_program(
        """
        p(X) :- q(X), r(X).
        s(X) :- p(X).
        """
    )
    database = {"q": {(1,), (2,)}, "r": {(2,), (3,)}}
    seminaive = SemiNaiveEngine(program).evaluate(database)
    solver = GroundHornSolver()
    for value in (1, 2, 3):
        if (value,) in database["q"]:
            solver.add_fact(("q", value))
        if (value,) in database["r"]:
            solver.add_fact(("r", value))
        solver.add_rule(("p", value), (("q", value), ("r", value)))
        solver.add_rule(("s", value), (("p", value),))
    ltur_truth = solver.solve()
    assert {v for (name, v) in ltur_truth if name == "p"} == {v[0] for v in seminaive["p"]}
    assert {v for (name, v) in ltur_truth if name == "s"} == {v[0] for v in seminaive["s"]}


# Six mutually recursive rules over three head predicates: the order in
# which the semi-naive sweep visits the heads decides how deltas batch up.
_HASH_SEED_PROBE = textwrap.dedent(
    """
    from repro.datalog import SemiNaiveEngine, parse_program

    program = parse_program('''
        a(X, Y) :- e(X, Y).
        b(X, Y) :- a(X, Z), f(Z, Y).
        c(X, Y) :- b(X, Z), e(Z, Y).
        a(X, Y) :- c(X, Z), f(Z, Y).
        b(X, Y) :- c(X, Z), e(Z, Y).
        c(X, Y) :- a(X, Z), e(Z, Y).
    ''')
    database = {
        "e": {(i, (i * 7 + 3) % 40) for i in range(40)},
        "f": {(i, (i * 11 + 5) % 40) for i in range(40)},
    }
    engine = SemiNaiveEngine(program)
    engine.evaluate(database)
    print(tuple(engine.engine_info()))
    """
)


def test_engine_info_does_not_depend_on_the_hash_seed():
    # engine_info() counters are reported as per-layer benchmark metrics,
    # so two interpreters with different string hashing must agree on them.
    src = Path(__file__).resolve().parents[2] / "src"
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.add(completed.stdout)
    assert len(outputs) == 1, outputs
