"""Tests for the compile-once rule plans of repro/datalog/plan.py."""

from __future__ import annotations

import pytest

from repro.datalog import (
    ColumnarDatabase,
    RulePlan,
    SemiNaiveEngine,
    compile_stratum,
    parse_program,
    reference_evaluate,
)
from repro.datalog.engine import EvaluationError
from repro.datalog.plan import size_bucket

BUILTINS = SemiNaiveEngine.BUILTINS


def _plan(text):
    program = parse_program(text)
    return RulePlan(program.rules[0], BUILTINS)


def test_slot_layout_and_relational_split():
    plan = _plan("p(X, Y) :- e(X, Z), f(Z, Y), lt(X, Y), not g(X).")
    assert plan.nvars == 3  # X, Z, Y
    assert plan.relational == (0, 1)  # e and f; lt and g are filters
    assert len(plan.filters) == 2
    assert plan.head_predicate == "p"
    assert plan.head_unbound is None


def test_plan_run_matches_manual_join():
    plan = _plan("p(X, Y) :- e(X, Z), f(Z, Y).")
    facts = ColumnarDatabase({"e": {(1, 2), (3, 4)}, "f": {(2, 5), (4, 6), (9, 9)}})
    assert sorted(plan.run(facts)) == [(1, 5), (3, 6)]


def test_plan_handles_constants_and_repeated_variables():
    plan = _plan('p(X) :- e(X, X, "gold").')
    facts = ColumnarDatabase(
        {"e": {(1, 1, "gold"), (1, 2, "gold"), (3, 3, "silver"), (4, 4, "gold")}}
    )
    assert sorted(plan.run(facts)) == [(1,), (4,)]


def test_plan_skips_wrong_arity_facts():
    # A relation holding mixed-arity facts must only match same-arity atoms,
    # exactly like the reference oracle's unification.
    plan = _plan("p(X) :- e(X, Y).")
    facts = ColumnarDatabase({"e": {(1, 2), (3,), (4, 5, 6)}})
    assert sorted(plan.run(facts)) == [(1,)]


def test_fact_rule_plan_emits_once():
    plan = _plan("p(1, 2).")
    facts = ColumnarDatabase()
    assert plan.run(facts) == [(1, 2)]


def test_builtin_filter_hoisted_and_applied():
    plan = _plan("cheap(X) :- item(X, P), lt(P, 10).")
    facts = ColumnarDatabase({"item": {("a", 5), ("b", 20), ("c", 9)}})
    assert sorted(plan.run(facts)) == [("a",), ("c",)]


def test_negated_literal_checked_against_full_relation():
    plan = _plan("only(X) :- node(X), not bad(X).")
    facts = ColumnarDatabase({"node": {(1,), (2,), (3,)}, "bad": {(2,)}})
    assert sorted(plan.run(facts)) == [(1,), (3,)]


def test_unbound_filter_variable_raises_like_seed():
    # eq(X, Y) with Y bound by no relational literal: safety passes (builtins
    # count as positive body atoms) but execution must raise, as in the
    # reference oracle.
    plan = _plan("p(X) :- q(X), eq(X, Y).")
    facts = ColumnarDatabase({"q": {(1,)}})
    with pytest.raises(EvaluationError):
        plan.run(facts)
    # ...but only when a substitution actually reaches the filter.
    empty = ColumnarDatabase({"q": set()})
    assert plan.run(empty) == []


def test_filter_incomparable_to_bound_set_is_not_dropped():
    # Regression: a filter whose slot set is incomparable to the bound set
    # after some step (neither subset nor superset) must stay pending until
    # all its slots are bound, not silently vanish (subset comparison is a
    # partial order).  Here lt(W, X) is incomparable to {Y, W} after the
    # second literal and only becomes ready after the third.
    plan = _plan("p(W) :- e(Y, 0), e(Y, W), e(X, X), lt(W, X).")
    facts = ColumnarDatabase({"e": {(0, 0)}})
    assert plan.run(facts) == []  # lt(0, 0) fails; nothing derivable
    facts2 = ColumnarDatabase({"e": {(0, 0), (0, 1), (2, 2)}})
    # W=1 from e(0,1), X=2 from e(2,2): lt(1,2) holds; also W=0,X=2.
    assert sorted(plan.run(facts2)) == [(0,), (1,)]


def test_delta_position_restricts_to_delta_relation():
    plan = _plan("reach(X, Y) :- reach(X, Z), edge(Z, Y).")
    facts = ColumnarDatabase({"reach": {(1, 2), (5, 6)}, "edge": {(2, 3), (6, 7)}})
    delta = ColumnarDatabase({"reach": {(1, 2)}})
    # Delta at position 0: only the delta's reach facts seed the join.
    assert sorted(plan.run(facts, delta, 0)) == [(1, 3)]
    # No delta: the full reach relation is used.
    assert sorted(plan.run(facts)) == [(1, 3), (5, 7)]


def test_join_orders_memoised_per_size_bucket():
    plan = _plan("p(X, Y) :- e(X, Z), f(Z, Y).")
    facts = ColumnarDatabase({"e": {(1, 2)}, "f": {(2, 3)}})
    plan.run(facts)
    assert plan.plan_count() == 1
    # Same buckets -> no replan.
    plan.run(facts)
    assert plan.plan_count() == 1
    # Growing a relation within its bucket does not replan...
    # (sizes 1 -> bucket 1; size 2-3 -> bucket 2)
    facts.add_fact("f", (9, 9))
    facts.add_fact("f", (8, 8))
    plan.run(facts)
    assert plan.plan_count() == 2  # crossed 1 -> 2-3 boundary: one replan
    facts.add_fact("f", (7, 7))
    plan.run(facts)  # size 4 crosses into the next bucket
    assert plan.plan_count() == 3
    # A delta position gets its own plan family.
    delta = ColumnarDatabase({"e": {(1, 2)}})
    plan.run(facts, delta, 0)
    assert plan.plan_count() == 4


def test_size_bucket_is_log2_coarse():
    assert size_bucket(0) == 0
    assert size_bucket(1) == 1
    assert size_bucket(2) == size_bucket(3) == 2
    assert size_bucket(1024) == 11
    assert size_bucket(2047) == 11
    assert size_bucket(2048) == 12


def test_compile_stratum_trigger_map():
    program = parse_program(
        """
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
        two_hop(X, Y) :- reach(X, Z), reach(Z, Y).
        """
    )
    plans, triggers = compile_stratum(program.rules, BUILTINS)
    assert len(plans) == 3
    # edge is extensional (not a stratum head): no triggers.
    assert "edge" not in triggers
    fired = triggers["reach"]
    # The recursive rule triggers at position 0, the two_hop rule at both
    # of its reach positions.
    assert {(plan.rule.head.predicate, position) for plan, position in fired} == {
        ("reach", 0),
        ("two_hop", 0),
        ("two_hop", 1),
    }


def test_planned_engine_agrees_with_baselines_on_stratified_program():
    program = parse_program(
        """
        reachable(X) :- source(X).
        reachable(Y) :- reachable(X), edge(X, Y).
        unreachable(X) :- node(X), not reachable(X).
        far(X) :- node(X), not reachable(X), neq(X, 9).
        """
    )
    database = {
        "source": {(1,)},
        "edge": {(1, 2), (2, 3), (3, 1), (4, 5)},
        "node": {(1,), (2,), (3,), (4,), (5,), (9,)},
    }
    planned = SemiNaiveEngine(program).evaluate(database)
    assert planned == reference_evaluate(program, database)
    assert planned["far"] == {(4,), (5,)}
