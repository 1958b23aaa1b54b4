"""``tree_query``: monadic datalog over trees, the paper's theory side.

Each request evaluates three compiled queries over one seeded tree through
``Session.query``: a TMNF chain program (Theorem 2.4's ground + LTUR path),
the datalog compilation of a leaf-selecting tree automaton (Theorem 2.5)
and a Core XPath query translated to TMNF (Theorem 4.6).  Six requests in
ten re-query a hot set of two trees, well inside each evaluator's
fixpoint LRU (``cache_size=8``), so they are cache hits; the rest query
fresh trees whose sizes span 8x.  ``linearity_ratio`` is the per-node time
of the largest trees over the smallest, on cache misses only.

The trees are small (32-256 nodes) because the three programs cost about
0.8 ms per node on a miss, mostly the automaton's compiled program: larger
trees would leave too few requests per run for a steady p90.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Tuple

from repro import Session
from repro.automata import leaf_selector_automaton
from repro.bench import chain_program, scaling_tree
from repro.tree.document import Document
from repro.tree.serialize import to_sexpr
from repro.xpath import CoreXPathEvaluator, translate_to_tmnf

from ..spans import Tracer
from .base import Outcome, Workload, deck, session_counters, span

LABELS = ("a", "b", "c")
CHAIN_RULES = 8
XPATH = "//a[b]//c[following-sibling::b]"
#: Fresh-tree sizes -> trees per block of 8 misses (20 requests).  With six
#: hits in ten requests the median falls among hits on the larger hot tree
#: and the p90 in the middle of the 256-node misses, both narrow classes
#: away from class boundaries.
SIZE_MIX = ((32, 2), (96, 2), (256, 4))
TINY_SIZE_MIX = ((16, 1), (32, 1))
HOT_SIZES = (64, 128)
TINY_HOT_SIZES = (16, 32)
#: Request positions, per block of ten, that re-query the hot set.  This and
#: the size mix are assumed, not observed (see NOTES.md).
HOT_SLOTS = frozenset({0, 1, 3, 5, 6, 8})
#: Share of requests whose answers are checked against the references.
CHECK_SHARE = 0.25


class TreeQuery(Workload):
    name = "tree_query"
    why = (
        "The theory side: ground+LTUR monadic datalog, an automaton compiled to "
        "datalog and Core XPath in TMNF, with cache hits beside misses; no Elog."
    )
    block = 20

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self._rng = random.Random(f"tree_query/{seed}")
        self._sizes = deck(self._rng, TINY_SIZE_MIX if tiny else SIZE_MIX)
        self.hot = [
            scaling_tree(size, seed=self._rng.randrange(2**31), labels=LABELS)
            for size in (TINY_HOT_SIZES if tiny else HOT_SIZES)
        ]
        self._hot_turn = 0

    def input_bytes(self, count: int) -> bytes:
        trees = [to_sexpr(tree) for tree in self.hot]
        trees += [to_sexpr(self.prepare(index)[0]) for index in range(count)]
        return json.dumps(trees).encode()

    def setup(self, tracer: Optional[Tracer]) -> None:
        session = self.session = Session()
        chain = chain_program(CHAIN_RULES, LABELS)
        automaton = leaf_selector_automaton(LABELS)
        with span(tracer, "xpath.translate"):
            xpath = translate_to_tmnf(XPATH, labels=LABELS)
        with span(tracer, "analysis"):
            session.analyze(chain)
            session.analyze(xpath)
        with span(tracer, "registry.compile"):
            evaluators = [session.engine(chain), session.engine(xpath)]
        with span(tracer, "automata.compile"):
            evaluators.insert(1, session.engine(automaton, "automata", labels=LABELS))
        self.queries = ((chain, None), (automaton, "automata"), (xpath, None))
        self.predicates = (chain.query_predicates, ("selected",), ("answer",))
        self.evaluators = evaluators
        self.automaton = automaton
        if tracer is not None:
            for evaluator in evaluators:
                evaluator.evaluate = tracer.wrap("mdatalog.evaluate", evaluator.evaluate)
            self._query = tracer.wrap("api.session", session.query)
        else:
            self._query = session.query

    def prepare(self, index: int) -> Tuple[Document, bool, int]:
        """(tree, whether to check it, fixpoint-cache hits before)."""
        if index % 10 in HOT_SLOTS:
            document = self.hot[self._hot_turn % len(self.hot)]
            self._hot_turn += 1
        else:
            size = next(self._sizes)
            document = scaling_tree(size, seed=self._rng.randrange(2**31), labels=LABELS)
        check = self._rng.random() < CHECK_SHARE
        return document, check, self._cache_hits()

    def _cache_hits(self) -> int:
        evaluators = getattr(self, "evaluators", ())
        return sum(evaluator.fixpoint_cache_info().hits for evaluator in evaluators)

    def execute(self, request) -> List[object]:
        document = request[0]
        return [self._query(program, document, backend) for program, backend in self.queries]

    def outcome(self, request, results) -> Outcome:
        document, check, hits_before = request
        hit = self._cache_hits() - hits_before == len(self.queries)
        selected = [
            sorted(node.preorder_index for predicate in predicates for node in result.nodes(predicate))
            for result, predicates in zip(results, self.predicates)
        ]
        ok = True
        if check:
            ok = selected == self._reference(document)
        return Outcome(
            ok=ok,
            items=sum(len(nodes) for nodes in selected),
            size=len(document),
            units=len(document),
            linear=not hit,
            cache_hit=hit,
        )

    def _reference(self, document: Document) -> List[List[int]]:
        """Answers computed without the monadic datalog evaluator."""
        current = document.nodes_with_label("a")
        for step in range(1, CHAIN_RULES):
            attribute = "first_child" if step % 2 else "next_sibling"
            current = [getattr(node, attribute) for node in current]
            current = [node for node in current if node is not None]
        chain = sorted({node.preorder_index for node in current})
        leaves = [node.preorder_index for node in self.automaton.select(document)]
        xpath = sorted(node.preorder_index for node in CoreXPathEvaluator(document).evaluate(XPATH))
        return [chain, sorted(leaves), xpath]

    def counters(self) -> Dict[str, float]:
        values = session_counters(self.session)
        infos = [evaluator.fixpoint_cache_info() for evaluator in self.evaluators]
        values["mdatalog.hits"] = sum(info.hits for info in infos)
        values["mdatalog.misses"] = sum(info.misses for info in infos)
        return values
