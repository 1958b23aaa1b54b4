"""``datalog_closure``: recursive datalog on the columnar join core.

Each request queries transitive closure over a seeded graph or
same-generation over a seeded tree's parent relation through
``Session.query(..., backend="semi-naive")``.  Four databases are queried:
a small and a large graph, a small and a large tree (4x apart in nodes).
Six requests in twenty first write -- delete and insert a few facts -- and
then query, a full fixpoint; the rest re-query unchanged data, a
fixpoint-cache hit.  Every write changes the answer while the database
keeps its size: a graph is a core closed by a Hamiltonian cycle plus a few
satellite nodes, each tied to the core by one edge, and a write turns
satellite edges round (a satellite that reached the core is now reached by
it); a tree's last level hangs below the two levels above it, and a write
moves last-level leaves to the other one, changing their depth.  So an
answer left stale by a write fails the reference check.  ``linearity_ratio``
is the per-derived-fact time of the large database over the small one on
misses, per program (geometric mean).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro import Session

from ..spans import Tracer
from .base import Outcome, Workload, deck, session_counters, span

TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- tc(X, Z), edge(Z, Y).
"""
SG = """
sg(X, X) :- node(X).
sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
"""
#: Graph nodes (core cycle plus half as many random edges, and satellites)
#: and tree level widths.
GRAPH_NODES = (60, 240)
TREE_WIDTHS = (15, 60)
TREE_DEPTH = 12
TINY_GRAPH_NODES = (6, 12)
TINY_TREE_WIDTHS = (2, 4)
TINY_TREE_DEPTH = 3
#: (database, write) -> requests per block of twenty.  Large-database
#: writes make up the slowest fifth, so the p90 falls inside them; the
#: median falls among hits on the two mid-sized databases.  The mix is
#: assumed, not observed (see NOTES.md).
MIX = (
    (("tc", 1, True), 2), (("sg", 1, True), 2), (("tc", 0, True), 1), (("sg", 0, True), 1),
    (("tc", 0, False), 2), (("sg", 0, False), 5), (("tc", 1, False), 5), (("sg", 1, False), 2),
)
BLOCK = 20
#: Facts deleted (and as many inserted) by one write.
WRITE_FACTS = 3
#: One graph node in this many is a satellite outside the core cycle.
SATELLITE_EVERY = 20

Fact = Tuple[int, ...]


class Database:
    """One queried database plus its reference answer for the current data.

    ``fixed`` holds the edges writes never delete (a graph's core);
    ``levels`` lists a tree's nodes by their depth before any write.
    """

    def __init__(
        self,
        family: str,
        rank: int,
        nodes: int,
        facts: Dict[str, Set[Fact]],
        fixed: FrozenSet[Fact] = frozenset(),
        levels: Tuple[List[int], ...] = (),
    ) -> None:
        self.family = family
        self.rank = rank
        self.nodes = nodes
        self.facts = facts
        self.fixed = fixed
        self.levels = levels
        #: The reference answer for the current data, and the last answer
        #: object found equal to it (answers are immutable, so the same
        #: object needs no second comparison until a write).
        self.reference: Optional[Reference] = None
        self.verified: Optional[FrozenSet[Fact]] = None


class DatalogClosure(Workload):
    name = "datalog_closure"
    why = (
        "Recursive datalog where the columnar join core (plan, columns, engine) "
        "does the work, with writes beside fixpoint-cache hits."
    )
    block = BLOCK

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        rng = self._rng = random.Random(f"datalog_closure/{seed}")
        self._mix = deck(rng, MIX)
        self.databases: Dict[Tuple[str, int], Database] = {}
        for rank, nodes in enumerate(TINY_GRAPH_NODES if tiny else GRAPH_NODES):
            core = nodes - max(2, nodes // SATELLITE_EVERY)
            edges = {(node, (node + 1) % core) for node in range(core)}
            while len(edges) < core * 3 // 2:
                edges.add((rng.randrange(core), rng.randrange(core)))
            fixed = frozenset(edges)
            for satellite in range(core, nodes):
                edge = (satellite, rng.randrange(core))
                edges.add(edge if rng.random() < 0.5 else edge[::-1])
            self.databases["tc", rank] = Database("tc", rank, nodes, {"edge": edges}, fixed=fixed)
        depth = TINY_TREE_DEPTH if tiny else TREE_DEPTH
        for rank, width in enumerate(TINY_TREE_WIDTHS if tiny else TREE_WIDTHS):
            levels = tuple([[0]] + [
                list(range(1 + level * width, 1 + (level + 1) * width)) for level in range(depth)
            ])
            parents = {
                (child, rng.choice(levels[level]))
                for level in range(depth - 1)
                for child in levels[level + 1]
            }
            # Half the last level starts one level up, as writes keep it.
            parents |= {
                (leaf, rng.choice(levels[depth - rng.randrange(1, 3)])) for leaf in levels[depth]
            }
            nodes = 1 + width * depth
            facts = {"par": parents, "node": {(node,) for node in range(nodes)}}
            self.databases["sg", rank] = Database("sg", rank, nodes, facts, levels=levels)

    def input_bytes(self, count: int) -> bytes:
        snapshots = [
            {name: sorted(facts) for name, facts in db.facts.items()}
            for db in self.databases.values()
        ]
        for index in range(count):
            db, deletes, inserts, _ = self.prepare(index)
            _apply(db, deletes, inserts)
            snapshots.append([deletes, inserts])
        return json.dumps(snapshots, default=sorted).encode()

    def setup(self, tracer: Optional[Tracer]) -> None:
        session = self.session = Session()
        with span(tracer, "analysis"):
            session.analyze(TC)
            session.analyze(SG)
        with span(tracer, "registry.compile"):
            self.engines = {
                "tc": session.engine(TC, "semi-naive"),
                "sg": session.engine(SG, "semi-naive"),
            }
        self.programs = {"tc": TC, "sg": SG}
        if tracer is not None:
            for engine in self.engines.values():
                # fixpoint() is the cache lookup around evaluate(), the join core.
                engine.evaluate = tracer.wrap("engine.fixpoint", engine.evaluate)
                engine.fixpoint = tracer.wrap("cache.lookup", engine.fixpoint)
            self._query = tracer.wrap("api.session", session.query)
        else:
            self._query = session.query

    # -- requests ------------------------------------------------------------
    def prepare(self, index: int):
        """(database, facts to delete, facts to insert, cache hits before)."""
        family, rank, write = next(self._mix)
        db = self.databases[family, rank]
        deletes: Dict[str, Set[Fact]] = {}
        inserts: Dict[str, Set[Fact]] = {}
        if write:
            deletes, inserts = self._rewire(db) if family == "tc" else self._move_leaves(db)
        return db, deletes, inserts, self._hits(db)

    def _hits(self, db: Database) -> int:
        engines = getattr(self, "engines", None)  # absent before set-up
        return engines[db.family].fixpoint_cache_info().hits if engines else 0

    def _rewire(self, db: Database):
        """Turn satellite edges round: what each satellite reaches, and what
        reaches it, changes."""
        edges = sorted(db.facts["edge"] - db.fixed)
        removed = set(self._rng.sample(edges, min(WRITE_FACTS, len(edges))))
        core = db.nodes - len(edges)
        added = {(self._rng.randrange(core), source) if source >= core
                 else (target, self._rng.randrange(core))
                 for source, target in removed}
        return {"edge": removed}, {"edge": added}

    def _move_leaves(self, db: Database):
        """Re-parent last-level leaves to the other of the two levels above
        them: each moved leaf's depth, and so its generation, changes."""
        parent_of = dict(db.facts["par"])
        above = set(db.levels[-2])
        removed: Set[Fact] = set()
        added: Set[Fact] = set()
        for leaf in self._rng.sample(db.levels[-1], min(WRITE_FACTS, len(db.levels[-1]))):
            level = db.levels[-3] if parent_of[leaf] in above else db.levels[-2]
            removed.add((leaf, parent_of[leaf]))
            added.add((leaf, self._rng.choice(level)))
        return {"par": removed}, {"par": added}

    def execute(self, request):
        db, deletes, inserts, _ = request
        _apply(db, deletes, inserts)
        return self._query(self.programs[db.family], db.facts, "semi-naive")

    def outcome(self, request, result) -> Outcome:
        db, deletes, _, hits_before = request
        write = bool(deletes)
        hit = self._hits(db) > hits_before
        if write or db.reference is None:
            db.reference = _transitive_closure(db.facts["edge"]) if db.family == "tc" else (
                _same_generation(db.facts["par"], db.nodes)
            )
            db.verified = None
        answer = result.tuples(db.family)
        correct = answer is db.verified or db.reference.matches(answer)
        if correct:
            db.verified = answer
        return Outcome(
            ok=correct,
            items=len(answer),
            size=db.rank,
            units=len(answer),
            linear=not hit,
            family=db.family,
            cache_hit=hit,
            write=write,
        )

    def counters(self) -> Dict[str, float]:
        values = session_counters(self.session)
        infos = [engine.fixpoint_cache_info() for engine in self.engines.values()]
        values["cache.fixpoint_hits"] = sum(info.hits for info in infos)
        values["cache.fixpoint_misses"] = sum(info.misses for info in infos)
        return values


def _apply(db: Database, deletes: Dict[str, Set[Fact]], inserts: Dict[str, Set[Fact]]) -> None:
    for relation, facts in deletes.items():
        db.facts[relation] -= facts
    for relation, facts in inserts.items():
        db.facts[relation] |= facts


class Reference(NamedTuple):
    """An answer known without listing its pairs: ``size`` pairs, each of
    which ``holds``.  A set of that many pairs that all hold is the answer."""

    size: int
    holds: Callable[[Fact], bool]

    def matches(self, answer: FrozenSet[Fact]) -> bool:
        try:
            return len(answer) == self.size and all(map(self.holds, answer))
        except (TypeError, ValueError):  # malformed tuples are wrong answers
            return False


def _transitive_closure(edges: Set[Fact]) -> Reference:
    """Reachability as one bitmask per source node, widened along every
    edge until no mask changes."""
    successors: Dict[int, List[int]] = {}
    for source, target in edges:
        successors.setdefault(source, []).append(target)
    reach = dict.fromkeys(successors, 0)
    changed = True
    while changed:
        changed = False
        for source, targets in successors.items():
            bits = reach[source]
            for target in targets:
                bits |= 1 << target | reach.get(target, 0)
            if bits != reach[source]:
                reach[source] = bits
                changed = True
    return Reference(
        sum(bin(bits).count("1") for bits in reach.values()),
        lambda pair: reach.get(pair[0], 0) >> pair[1] & 1 == 1,
    )


def _same_generation(parents: Set[Fact], nodes: int) -> Reference:
    """Same generation in a tree rooted at 0: equal depth."""
    parent_of = dict(parents)
    depth = {0: 0}

    def depth_of(node: int) -> int:
        path = []
        ancestor = node
        while ancestor not in depth:
            path.append(ancestor)
            ancestor = parent_of[ancestor]
        for step in reversed(path):
            depth[step] = depth[parent_of[step]] + 1
        return depth[node]

    for node in range(nodes):
        depth_of(node)
    return Reference(
        sum(count * count for count in Counter(depth.values()).values()),
        lambda pair: pair[0] in depth and depth.get(pair[1]) == depth[pair[0]],
    )
