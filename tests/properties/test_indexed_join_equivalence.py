"""The engine against its reference oracle, over random programs.

Randomised datalog programs (with recursion, stratified negation, and
comparison builtins) over randomised extensional databases must produce
exactly the fixpoint of :func:`~repro.datalog.reference.reference_evaluate`
(the seed nested-loop evaluator) — directly, through the public
:class:`repro.api.Session` surface, and after the engine's compiled plans
and join-order memos have been warmed on another database.  The same holds
for *where* the plans come from (a shared :class:`~repro.datalog.registry.
PlanRegistry` or a private compilation) and for what the
:class:`~repro.datalog.cache.FixpointCache` returns on a hit.

The program/database generators are shared with the other property suites
(same schema, same shrinking behaviour).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.datalog import (
    EngineOptions,
    PlanRegistry,
    SemiNaiveEngine,
    parse_program,
    reference_evaluate,
)
from repro.datalog.ast import Atom, Constant, Literal, Program, Rule, Variable

# A small fixed schema keeps the generator simple while still exercising
# joins over mixed arities, recursion through IDB predicates, and negation.
EDB_ARITIES = {"e1": 1, "e2": 2, "e3": 2}
IDB_ARITIES = {"p0": 1, "p1": 2, "p2": 1}
IDB_ORDER = ["p0", "p1", "p2"]  # negation only "downwards" => stratifiable
VARIABLES = [Variable(name) for name in ("X", "Y", "Z", "W")]
BUILTINS = ["lt", "le", "eq", "neq", "gt", "ge"]

DOMAIN = st.integers(min_value=0, max_value=5)


def _terms(draw, arity, variable_pool):
    terms = []
    for _ in range(arity):
        if draw(st.booleans()) or not variable_pool:
            if draw(st.integers(min_value=0, max_value=3)) == 0:
                terms.append(Constant(draw(DOMAIN)))
                continue
        terms.append(draw(st.sampled_from(variable_pool or VARIABLES)))
    return tuple(terms)


@st.composite
def rules(draw):
    head_predicate = draw(st.sampled_from(IDB_ORDER))
    head_index = IDB_ORDER.index(head_predicate)

    # 1-3 positive relational literals over EDB predicates and IDB
    # predicates at or below the head's layer (self-recursion allowed); the
    # layering keeps every generated program stratifiable even once negation
    # on strictly lower layers is added below.
    body: list = []
    positive_variables: set = set()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        predicate = draw(
            st.sampled_from(sorted(EDB_ARITIES) + IDB_ORDER[: head_index + 1])
        )
        arity = EDB_ARITIES.get(predicate) or IDB_ARITIES[predicate]
        atom = Atom(predicate, _terms(draw, arity, VARIABLES))
        body.append(Literal(atom))
        positive_variables |= atom.variables()

    bound_pool = sorted(positive_variables, key=str)

    # Optional negated literal over EDB or a strictly lower IDB predicate,
    # with variables drawn from the positive body (safety).
    if bound_pool and draw(st.booleans()):
        candidates = sorted(EDB_ARITIES) + IDB_ORDER[:head_index]
        predicate = draw(st.sampled_from(candidates))
        arity = EDB_ARITIES.get(predicate) or IDB_ARITIES[predicate]
        atom = Atom(predicate, _terms(draw, arity, bound_pool))
        if atom.variables() <= positive_variables:
            body.append(Literal(atom, negated=True))

    # Optional comparison builtin over bound variables / integer constants.
    if bound_pool and draw(st.booleans()):
        builtin = draw(st.sampled_from(BUILTINS))
        atom = Atom(builtin, _terms(draw, 2, bound_pool))
        if atom.variables() <= positive_variables:
            body.append(Literal(atom, negated=draw(st.booleans())))

    # Safe head: every head variable occurs in the positive body.
    head_arity = IDB_ARITIES[head_predicate]
    if bound_pool:
        head_terms = tuple(
            draw(st.sampled_from(bound_pool)) for _ in range(head_arity)
        )
    else:
        head_terms = tuple(Constant(draw(DOMAIN)) for _ in range(head_arity))
    return Rule(Atom(head_predicate, head_terms), tuple(body))


@st.composite
def programs(draw):
    rule_list = draw(st.lists(rules(), min_size=1, max_size=6))
    return Program(rule_list, edb_predicates=frozenset(EDB_ARITIES))


@st.composite
def databases(draw):
    database = {}
    for predicate, arity in EDB_ARITIES.items():
        facts = draw(
            st.sets(
                st.tuples(*([DOMAIN] * arity)),
                min_size=0,
                max_size=8,
            )
        )
        database[predicate] = set(facts)
    return database


@settings(max_examples=60, deadline=None)
@given(program=programs(), database=databases())
def test_planned_indexed_and_nested_loop_fixpoints_agree(program, database):
    assert SemiNaiveEngine(program).evaluate(database) == reference_evaluate(
        program, database
    )


@settings(max_examples=40, deadline=None)
@given(program=programs(), database=databases())
def test_shared_registry_fixpoints_match_private_compilation(program, database):
    # Two default engines hit the shared registry (the second reuses the
    # first's compiled plans — same objects); both must compute exactly the
    # fixpoint of a privately compiled engine (share_plans=False), i.e.
    # cross-engine plan sharing is invisible to evaluation.
    shared_first = SemiNaiveEngine(program)
    shared_second = SemiNaiveEngine(program)
    private = SemiNaiveEngine(program, options=EngineOptions(share_plans=False))
    if shared_second._stratum_plans:
        assert (
            shared_second._stratum_plans[0][0] is shared_first._stratum_plans[0][0]
        )
    result = shared_first.evaluate(database)
    assert result == shared_second.evaluate(database)
    assert result == private.evaluate(database)


@settings(max_examples=30, deadline=None)
@given(program=programs(), database=databases())
def test_plan_reuse_across_databases_stays_equivalent(program, database):
    # One engine (compiled plans reused and bucket-memoised across calls)
    # must agree with the oracle on every database, including after
    # evaluating a different database in between.
    engine = SemiNaiveEngine(program)
    warmup = {predicate: set(list(facts)[:1]) for predicate, facts in database.items()}
    engine.evaluate(warmup)
    assert engine.evaluate(database) == reference_evaluate(program, database)


@settings(max_examples=25, deadline=None)
@given(program=programs(), database=databases())
def test_session_query_matches_the_reference(program, database):
    result = Session().query(program, database)
    answers = {
        predicate: result.evaluation.query(predicate)
        for predicate in result.evaluation.predicates()
    }
    expected = reference_evaluate(program, database)
    assert answers == {predicate: frozenset(facts) for predicate, facts in expected.items()}


@settings(max_examples=25, deadline=None)
@given(program=programs(), database=databases())
def test_fixpoint_cache_hit_returns_the_stored_fixpoint(program, database):
    # The cache keys on database content, never on storage internals: a
    # re-evaluation must hit and hand back the stored entry itself, whose
    # facts are the oracle's fixpoint.
    engine = SemiNaiveEngine(program)
    first = engine.fixpoint(database)
    before = engine.fixpoint_cache_info()
    again = engine.fixpoint(database)
    after = engine.fixpoint_cache_info()
    assert again is first
    assert after.hits == before.hits + 1
    assert first.facts() == reference_evaluate(program, database)


@settings(max_examples=25, deadline=None)
@given(program=programs(), database=databases())
def test_plan_registry_shares_one_compilation_across_options(program, database):
    # Compiled programs are keyed by content fingerprint only — engines
    # with different tuning re-use the *same* compiled plans and still
    # compute the oracle's fixpoint.
    registry = PlanRegistry()
    default = SemiNaiveEngine(program, registry=registry)
    tuned = SemiNaiveEngine(
        program, options=EngineOptions(seed_plans=False, cache_size=2), registry=registry
    )
    if default._stratum_plans:
        assert default._stratum_plans[0][0] is tuned._stratum_plans[0][0]
    expected = reference_evaluate(program, database)
    assert default.evaluate(database) == expected
    assert tuned.evaluate(database) == expected
    assert registry.info().misses <= 1


@settings(max_examples=30, deadline=None)
@given(database=st.sets(st.tuples(DOMAIN, DOMAIN), min_size=0, max_size=12))
def test_transitive_closure_agrees_on_random_graphs(database):
    program = parse_program(
        """
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
        far(X) :- node(X), not reach(X, X).
        node(X) :- edge(X, Y).
        node(Y) :- edge(X, Y).
        """
    )
    edb = {"edge": set(database)}
    assert SemiNaiveEngine(program).evaluate(edb) == reference_evaluate(program, edb)
