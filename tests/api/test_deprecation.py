"""Deprecation shims: the pre-façade surfaces still work, warn, and agree.

The acceptance contract of the façade PR: every pre-existing constructor
keeps working (so downstream code does not break), emits a
:class:`DeprecationWarning` naming the replacement, and produces results
identical to the options-based path.
"""

from __future__ import annotations

import warnings

import pytest

from repro import EngineOptions
from repro.automata import compiled_select, leaf_selector_automaton
from repro.datalog import SemiNaiveEngine, parse_program
from repro.mdatalog import MonadicProgram, MonadicTreeEvaluator
from repro.server import (
    DatalogQueryComponent,
    InformationPipe,
    WrapperComponent,
    XmlSourceComponent,
)
from repro.tree import tree
from repro.web import SimulatedWeb
from repro.xmlgen import XmlElement
from repro.xmlgen.serializer import to_compact_xml

PROGRAM = parse_program(
    """
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- reach(X, Z), edge(Z, Y).
    """
)
DATABASE = {"edge": {(1, 2), (2, 3), (3, 1)}}

MONADIC = MonadicProgram.parse(
    """
    italic(X) :- label_i(X).
    italic(X) :- italic(X0), firstchild(X0, X).
    italic(X) :- italic(X0), nextsibling(X0, X).
    """,
    query_predicates=["italic"],
)


@pytest.fixture
def doc():
    return tree(("doc", ("i", ("b",)), ("a",)))


def test_engine_legacy_kwargs_warn_and_match_options():
    with pytest.warns(DeprecationWarning, match="SemiNaiveEngine"):
        legacy = SemiNaiveEngine(PROGRAM, share_plans=False, cache_size=4)
    modern = SemiNaiveEngine(
        PROGRAM, options=EngineOptions(share_plans=False, cache_size=4)
    )
    assert legacy.evaluate(DATABASE) == modern.evaluate(DATABASE)
    assert legacy.share_plans is modern.share_plans is False
    assert legacy.fixpoint_cache_info().capacity == 4


def test_engine_rejects_mixing_options_and_legacy_kwargs():
    with pytest.raises(ValueError, match="not both"):
        SemiNaiveEngine(PROGRAM, cache_size=4, options=EngineOptions())


def test_engine_default_construction_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        SemiNaiveEngine(PROGRAM)
        SemiNaiveEngine(PROGRAM, options=EngineOptions(share_plans=False))


def test_monadic_evaluator_legacy_kwargs_warn_and_match_options(doc):
    with pytest.warns(DeprecationWarning, match="MonadicTreeEvaluator"):
        legacy = MonadicTreeEvaluator(MONADIC, force_generic=True)
    modern = MonadicTreeEvaluator(MONADIC, options=EngineOptions(force_generic=True))
    assert not legacy.uses_ground_pipeline and not modern.uses_ground_pipeline
    assert [n.preorder_index for n in legacy.select(doc, "italic")] == [
        n.preorder_index for n in modern.select(doc, "italic")
    ]


def test_compiled_select_legacy_kwargs_warn_and_match_options(doc):
    automaton = leaf_selector_automaton(("doc", "i", "b", "a"))
    with pytest.warns(DeprecationWarning, match="compiled_"):
        legacy = compiled_select(automaton, doc, force_generic=True)
    modern = compiled_select(
        automaton, doc, options=EngineOptions(force_generic=True)
    )
    assert [n.preorder_index for n in legacy] == [n.preorder_index for n in modern]


def test_datalog_component_legacy_kwargs_warn_and_match_options(doc):
    with pytest.warns(DeprecationWarning, match="DatalogQueryComponent"):
        legacy = DatalogQueryComponent("q", MONADIC, lambda: doc, cache_size=4)
    modern = DatalogQueryComponent(
        "q", MONADIC, lambda: doc, options=EngineOptions(cache_size=4)
    )
    assert to_compact_xml(legacy.process([])) == to_compact_xml(modern.process([]))


def test_wrapper_component_share_interpreter_warns():
    program = __import__("repro.elog", fromlist=["parse_elog"]).parse_elog(
        "offer(S, X) <- document(_, S), subelem(S, ?.tr, X)"
    )
    web = SimulatedWeb()
    web.publish("shop.test", "<html><body><table><tr><td>x</td></tr></table></body></html>")
    with pytest.warns(DeprecationWarning, match="share_interpreter"):
        legacy = WrapperComponent("w", program, web, "shop.test", share_interpreter=False)
    modern = WrapperComponent(
        "w", program, web, "shop.test", options=EngineOptions(share_plans=False)
    )
    assert to_compact_xml(legacy.process([])) == to_compact_xml(modern.process([]))


def test_imperative_pipe_wiring_warns_and_still_runs():
    def source():
        root = XmlElement("r")
        root.add("item")
        return root

    pipe = InformationPipe("legacy")
    with pytest.warns(DeprecationWarning, match="Pipeline.builder"):
        pipe.add(XmlSourceComponent("src", source))
    with pytest.warns(DeprecationWarning, match="Pipeline.builder"):
        pipe.add(XmlSourceComponent("other", source))
        pipe.connect("src", "other")
    with pytest.warns(DeprecationWarning, match="Pipeline.builder"):
        pipe.chain("src", "other")
    assert pipe.run()["src"].name == "r"
