"""The reference oracle: the seed nested-loop semi-naive evaluator.

:func:`reference_evaluate` computes the fixpoint of a stratified datalog
program by the simplest algorithm that is plainly right: strata lowest
first, a naive first round, then semi-naive rounds in which every rule
that reads a stratum head with new facts re-joins its body by nested loops,
once per positive literal matched against the delta.  Builtins and negated
literals filter complete substitutions at the end.  Everything runs over
plain ``{predicate: set of tuples}`` dicts — no indexes, compiled plans,
caches or registry — so it shares no evaluation machinery with
:class:`~repro.datalog.engine.SemiNaiveEngine`, only the builtin table and
the error type.

It is the differential-testing oracle of the engine (the property suites
under ``tests/properties`` assert both compute the same fixpoint) and the
"before" series of the join benchmarks.  Joins cost O(|R|^k) per rule
firing, so keep its inputs small.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .ast import Atom, Constant, Database, Literal, Program, Rule, Term, Variable
from .engine import EvaluationError, SemiNaiveEngine
from .stratify import stratify

Fact = Tuple[object, ...]
Substitution = Dict[Variable, object]

BUILTINS = SemiNaiveEngine.BUILTINS


def reference_evaluate(program: Program, database: Database) -> Database:
    """All facts derivable from ``database`` (EDB facts included)."""
    program.check_safety()
    facts: Database = {predicate: set(rows) for predicate, rows in database.items()}
    for rules in stratify(program):
        _evaluate_stratum(rules, facts)
    return facts


def _add_fact(database: Database, predicate: str, fact: Fact) -> bool:
    relation = database.setdefault(predicate, set())
    if fact in relation:
        return False
    relation.add(fact)
    return True


def _evaluate_stratum(rules: List[Rule], facts: Database) -> None:
    head_predicates = {rule.head.predicate for rule in rules}
    # Naive first round, then semi-naive iteration on the deltas.
    delta: Database = {}
    for rule in rules:
        for predicate, derived in _apply_rule(rule, facts, None):
            if _add_fact(facts, predicate, derived):
                _add_fact(delta, predicate, derived)
    while delta:
        new_delta: Database = {}
        for rule in rules:
            relevant = any(
                not literal.negated
                and literal.atom.predicate in head_predicates
                and delta.get(literal.atom.predicate)
                for literal in rule.body
            )
            if not relevant:
                continue
            for predicate, derived in _apply_rule(rule, facts, delta):
                if _add_fact(facts, predicate, derived):
                    _add_fact(new_delta, predicate, derived)
        delta = new_delta


def _apply_rule(
    rule: Rule, facts: Database, delta: Optional[Database]
) -> Iterable[Tuple[str, Fact]]:
    """Yield (predicate, fact) pairs derivable by ``rule``.

    When ``delta`` is given, at least one positive body literal must be
    matched against the delta relation (semi-naive restriction); this is
    implemented by trying each positive literal as the "delta position".
    """
    positive_positions = [
        index for index, literal in enumerate(rule.body) if not literal.negated
    ]
    if delta is None or not positive_positions:
        yield from _join(rule, facts, None, -1)
        return
    seen: Set[Fact] = set()
    for delta_position in positive_positions:
        predicate = rule.body[delta_position].atom.predicate
        if not delta.get(predicate):
            continue
        for produced in _join(rule, facts, delta, delta_position):
            if produced[1] not in seen:
                seen.add(produced[1])
                yield produced


def _join(
    rule: Rule, facts: Database, delta: Optional[Database], delta_position: int
) -> Iterable[Tuple[str, Fact]]:
    substitutions: List[Substitution] = [{}]
    for index, literal in enumerate(rule.body):
        if literal.negated:
            continue
        predicate = literal.atom.predicate
        if predicate in BUILTINS:
            continue
        source = delta if index == delta_position and delta is not None else facts
        relation = source.get(predicate, ())
        next_substitutions: List[Substitution] = []
        for substitution in substitutions:
            for fact in relation:
                extended = _match_atom(literal.atom, fact, substitution)
                if extended is not None:
                    next_substitutions.append(extended)
        substitutions = next_substitutions
        if not substitutions:
            return
    # Builtins and negative literals act as filters over full substitutions.
    for substitution in substitutions:
        if not all(
            _filter_passes(literal, substitution, facts)
            for literal in rule.body
            if literal.negated or literal.atom.predicate in BUILTINS
        ):
            continue
        yield rule.head.predicate, _ground_terms(rule.head.terms, substitution)


def _filter_passes(literal: Literal, substitution: Substitution, facts: Database) -> bool:
    predicate = literal.atom.predicate
    values = _ground_terms(literal.atom.terms, substitution)
    if predicate in BUILTINS:
        holds = BUILTINS[predicate](*values)
        return not holds if literal.negated else holds
    # Negated relational literal; its relation is complete (stratified
    # negation evaluates strictly lower strata first).
    return values not in facts.get(predicate, ())


def _match_atom(atom: Atom, fact: Fact, substitution: Substitution) -> Optional[Substitution]:
    """Try to extend ``substitution`` so that ``atom`` matches ``fact``."""
    if len(atom.terms) != len(fact):
        return None
    extended = substitution
    copied = False
    for term, value in zip(atom.terms, fact):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            bound = extended.get(term, _UNBOUND)
            if bound is _UNBOUND:
                if not copied:
                    extended = dict(extended)
                    copied = True
                extended[term] = value
            elif bound != value:
                return None
    return extended


_UNBOUND = object()


def _ground_terms(terms: Sequence[Term], substitution: Substitution) -> Fact:
    values: List[object] = []
    for term in terms:
        if isinstance(term, Constant):
            values.append(term.value)
        else:
            if term not in substitution:
                raise EvaluationError(f"unbound variable {term} in rule head")
            values.append(substitution[term])
    return tuple(values)
