"""Generic bottom-up datalog evaluation (semi-naive, stratified negation).

The engine works for arbitrary (function-free, safe) datalog programs over
an extensional database given as ``{predicate: set of tuples}``.  It has
one evaluation path (see ROADMAP.md and docs/ENGINE.md for the full
picture):

1. **Plan compilation** (:mod:`repro.datalog.plan`) — every rule is compiled
   once into a :class:`~repro.datalog.plan.RulePlan`: a variable→slot
   layout, precompiled filters and head projection, and a per-(delta-
   position, size-bucket) memo of greedy join orders, each specialised at
   compile time into a chain of per-step closures (with a fused terminal
   step that emits head tuples straight out of the last probe).  Each
   stratum also gets a predicate→(rule, position) trigger map so semi-naive
   iterations fire only the rules a delta actually touches.  Compilation
   happens once per distinct *program*, not per engine: the process-wide
   registry (:mod:`repro.datalog.registry`) shares strata, plans and
   trigger maps across every engine constructed over content-equal programs
   (``share_plans=False`` opts out); join-order memos stay per-engine.
2. **Storage** (:mod:`repro.datalog.columns`) — relations intern rows into
   append-only arrays and serve probes from lazily materialised posting
   sets and composite full-key indexes that catch up to the row array in
   batch on first use after appends.
3. **Semi-naive loop** — a naive first round followed by delta iteration.
   Deltas are :class:`~repro.datalog.columns.ColumnarWindow` row-id range
   slices over the interned row arrays (no per-iteration copying); derived
   facts land via batched ``add_batch`` appends.
4. **Fixpoint caching** (:mod:`repro.datalog.cache`) — ``fixpoint()`` keeps
   an LRU of evaluated databases keyed by cheap content hashes with exact
   verification on hit, sized for the several hot documents of the
   :mod:`repro.server.pipeline` access pattern.

The seed nested-loop evaluator lives on as the reference oracle in
:mod:`repro.datalog.reference`; property tests assert the engine computes
its fixpoints.  The specialised linear-time evaluation for monadic datalog
over trees (Theorem 2.4) lives in :mod:`repro.mdatalog.evaluator`;
property-based tests check both engines agree.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from .ast import Database, Program
from .cache import CacheInfo, FixpointCache
from .columns import ColumnarDatabase, StorageStats
from .options import UNSET, EngineOptions, resolve_options
from .plan import PlanMemo, RulePlan, compile_stratum
from .registry import PlanRegistry, shared_registry
from .stratify import stratify

_EMPTY_EXTENSION: FrozenSet[Tuple[object, ...]] = frozenset()


class EngineInfo(NamedTuple):
    """Storage/executor counters of one engine (``engine_info()``).

    ``closure_compiles`` counts the specialised executor chains resident in
    this engine's join-order memos (one per distinct (delta position,
    size-bucket signature) the fixpoints actually exercised); the storage
    counters come from :class:`~repro.datalog.columns.StorageStats`.
    """

    rows_interned: int
    delta_batches: int
    delta_rows: int
    max_delta_batch: int
    closure_compiles: int


def aggregate_engine_info(infos: Iterable[EngineInfo]) -> EngineInfo:
    """Sum counters across engines (:meth:`repro.api.Session.engine_info`)."""
    rows = batches = delta_rows = compiles = 0
    max_batch = 0
    for info in infos:
        rows += info.rows_interned
        batches += info.delta_batches
        delta_rows += info.delta_rows
        compiles += info.closure_compiles
        if info.max_delta_batch > max_batch:
            max_batch = info.max_delta_batch
    return EngineInfo(rows, batches, delta_rows, max_batch, compiles)


class EvaluationError(RuntimeError):
    """Raised on unsafe rules or missing relations during evaluation."""


class EvaluationResult:
    """An immutable view of a computed fixpoint.

    Returned by :meth:`SemiNaiveEngine.fixpoint` and cached by the engine so
    that repeated queries over the same database (the
    :mod:`repro.server.pipeline` access pattern) do not recompute.
    """

    __slots__ = ("_facts", "_views")

    def __init__(self, facts: Database) -> None:
        self._facts = facts
        self._views: Dict[str, FrozenSet[Tuple[object, ...]]] = {}

    def query(self, predicate: str) -> FrozenSet[Tuple[object, ...]]:
        """The extension of ``predicate`` as an immutable ``frozenset`` view.

        The view is built once per predicate and shared between calls —
        repeated queries are O(1) instead of copying the whole extension.
        Callers that want a mutable copy should take ``set(result.query(p))``.

        A predicate the program never derives — including one it never
        mentions at all — yields the empty extension rather than an error.
        This is the unknown-predicate contract of the whole stack (see
        docs/API.md): queries are lenient, while *declaring* an undefined
        query predicate (``MonadicProgram(query_predicates=...)``) fails
        fast at construction.
        """
        view = self._views.get(predicate)
        if view is None:
            facts = self._facts.get(predicate)
            view = frozenset(facts) if facts else _EMPTY_EXTENSION
            self._views[predicate] = view
        return view

    def facts(self) -> Database:
        """A fresh ``{predicate: facts}`` snapshot of the whole fixpoint."""
        return {predicate: set(facts) for predicate, facts in self._facts.items()}

    def predicates(self) -> Set[str]:
        return set(self._facts)

    def __contains__(self, predicate: str) -> bool:
        return predicate in self._facts


class SemiNaiveEngine:
    """Semi-naive bottom-up evaluation with stratified negation.

    Builtin comparison predicates (``lt``, ``le``, ``gt``, ``ge``, ``eq``,
    ``neq``) are evaluated on bound arguments, supporting the paper's
    comparison conditions (Section 3.3).

    Tuning is declared through one :class:`~repro.datalog.options.
    EngineOptions` object (``options=``); ``cache_size`` bounds the fixpoint
    LRU (one entry per distinct hot database).

    ``share_plans=True`` (the default) obtains strata, rule plans and
    trigger maps from a shared :class:`~repro.datalog.registry.
    PlanRegistry` — the process-wide singleton, or the registry passed as
    ``registry=`` (a :class:`repro.api.Session` passes its own, so sessions
    never contend on module globals) — so N engines over the same program
    pay one compilation; every piece of database-sized state — join-order
    memos, delta storage, the fixpoint LRU — stays instance-local.
    ``share_plans=False`` compiles privately (the ablation baseline).

    The pre-façade tuning kwargs (``cache_size=``, ``share_plans=``) still
    work but emit
    :class:`DeprecationWarning`; new code passes ``options=``.
    """

    BUILTINS = {
        "lt": lambda a, b: a < b,
        "le": lambda a, b: a <= b,
        "gt": lambda a, b: a > b,
        "ge": lambda a, b: a >= b,
        "eq": lambda a, b: a == b,
        "neq": lambda a, b: a != b,
    }

    def __init__(
        self,
        program: Program,
        cache_size: object = UNSET,
        share_plans: object = UNSET,
        *,
        options: Optional[EngineOptions] = None,
        registry: Optional[PlanRegistry] = None,
    ) -> None:
        options = resolve_options(
            "SemiNaiveEngine",
            options,
            {
                "cache_size": cache_size,
                "share_plans": share_plans,
            },
        )
        program.check_safety()
        self._validate_builtins(program)
        self.program = program
        self.options = options
        self.share_plans = options.share_plans
        self._storage_stats = StorageStats()
        self._fixpoint_cache: FixpointCache[EvaluationResult] = FixpointCache(
            options.cache_size
        )
        # Compile-once rule plans plus per-stratum delta trigger maps —
        # shared through the registry by default, compiled privately on
        # ``share_plans=False``.
        self._stratum_plans: List[List[RulePlan]] = []
        self._stratum_triggers: List[Dict[str, List[Tuple[RulePlan, int]]]] = []
        # Statically-seeded planning (repro/analysis/cost.py): seed plans
        # are compiled at registry time; this flag decides whether run()
        # consults them, and index_advice drives eager index builds.
        self._seed_plans = options.seed_plans
        self._index_advice: Dict[str, Tuple[Tuple[int, ...], ...]] = {}
        if self.share_plans:
            source = registry if registry is not None else shared_registry()
            compiled = source.compiled(program, self.BUILTINS)
            self.strata = compiled.strata
            self._stratum_plans = compiled.stratum_plans
            self._stratum_triggers = compiled.stratum_triggers
            self._index_advice = compiled.index_advice
        else:
            self.strata = stratify(program)
            for stratum_rules in self.strata:
                plans, triggers = compile_stratum(stratum_rules, self.BUILTINS)
                self._stratum_plans.append(plans)
                self._stratum_triggers.append(triggers)
            if self._seed_plans:
                from ..analysis.cost import seed_rule_plans

                self._index_advice = seed_rule_plans(
                    self._stratum_plans, self._stratum_triggers, program
                )
        # Join-order memos are database-sized state and therefore NEVER
        # shared: one memo per (possibly shared) plan, owned by this engine.
        self._plan_memos: Dict[int, PlanMemo] = {
            id(plan): {} for plans in self._stratum_plans for plan in plans
        }

    def _validate_builtins(self, program: Program) -> None:
        """Builtins are binary comparisons; reject wrong arities up front.

        The seed engine silently dropped substitutions for mis-aried builtin
        atoms, masking user errors (e.g. ``lt(X)`` never firing a rule).
        """
        for rule in program.rules:
            for literal in rule.body:
                atom = literal.atom
                if atom.predicate in self.BUILTINS and atom.arity != 2:
                    raise EvaluationError(
                        f"builtin {atom.predicate!r} expects 2 arguments, "
                        f"got {atom.arity} in rule: {rule}"
                    )

    # ------------------------------------------------------------------
    def evaluate(self, database: Database) -> Database:
        """Return all derived facts (EDB facts included in the result)."""
        facts = ColumnarDatabase(database, self._storage_stats)
        if self._seed_plans and self._index_advice:
            # Pre-build the access paths the seeded plans will probe — the
            # same ones the lazy path would build on first probe, just
            # before the fixpoint starts instead of mid-join.
            for predicate, keys in self._index_advice.items():
                if not facts.row_count(predicate):
                    continue
                relation = facts.lookup(predicate)
                for positions in keys:
                    relation.ensure_index(positions)
        for plans, triggers in zip(self._stratum_plans, self._stratum_triggers):
            self._evaluate_stratum(plans, triggers, facts)
        return facts.to_database()

    def engine_info(self) -> EngineInfo:
        """Storage/executor counters (see :class:`EngineInfo`).

        Counters are monotonic across every ``evaluate``/``fixpoint`` this
        engine ran, like :meth:`fixpoint_cache_info`.
        """
        stats = self._storage_stats
        return EngineInfo(
            rows_interned=stats.rows_interned,
            delta_batches=stats.delta_batches,
            delta_rows=stats.delta_rows,
            max_delta_batch=stats.max_delta_batch,
            closure_compiles=sum(len(memo) for memo in self._plan_memos.values()),
        )

    def fixpoint(self, database: Database) -> EvaluationResult:
        """Evaluate with LRU memoisation per database content.

        Lookups pay one allocation-free O(|D|) content-hash pass plus, on a
        hash hit, one exact comparison against the stored snapshot (built
        once at store time, unlike the PR-1 cache that rebuilt a frozenset
        key per query) — a stale hit can never return a wrong fixpoint.
        The LRU holds several entries so the multi-document server working
        set does not thrash the cache.
        """
        fingerprint, cached = self._fixpoint_cache.lookup(database)
        if cached is not None:
            return cached
        result = EvaluationResult(self.evaluate(database))
        self._fixpoint_cache.store(fingerprint, database, result)
        return result

    def query(self, database: Database, predicate: str) -> FrozenSet[Tuple[object, ...]]:
        """Evaluate (cached) and return the extension of ``predicate``."""
        return self.fixpoint(database).query(predicate)

    def fixpoint_cache_info(self) -> CacheInfo:
        """Hit/miss statistics of the fixpoint LRU (for tests/benchmarks)."""
        return self._fixpoint_cache.info()

    def plan_memo_counts(self) -> List[int]:
        """Compiled join plans per rule in this engine's instance-local
        memos (bucket-memoisation introspection for tests/benchmarks)."""
        return [
            len(self._plan_memos[id(plan)])
            for plans in self._stratum_plans
            for plan in plans
        ]

    def clear_fixpoint_cache(self) -> None:
        self._fixpoint_cache.clear()

    # ------------------------------------------------------------------
    # Semi-naive evaluation (batched deltas over append-only row arrays)
    # ------------------------------------------------------------------
    def _evaluate_stratum(
        self,
        plans: List[RulePlan],
        triggers: Dict[str, List[Tuple[RulePlan, int]]],
        facts: ColumnarDatabase,
    ) -> None:
        """Semi-naive iteration as watermark advancement.

        Columnar relations are append-only with interned rows, so "the
        facts derived last iteration" is exactly the row-id range between
        two watermarks — no delta database is built, cleared or re-indexed.
        Each round advances one watermark per derived predicate and slides
        a reusable :class:`~repro.datalog.columns.ColumnarWindow` over the
        new range.
        """
        memos = self._plan_memos
        use_seeds = self._seed_plans
        stats = self._storage_stats
        # First-appearance order, not a set: the sweep order decides how
        # deltas batch up, and so the engine_info() counters, which must not
        # depend on PYTHONHASHSEED.
        heads = list(dict.fromkeys(plan.head_predicate for plan in plans))
        # Rows at or past the watermark were not yet applied as a delta.
        consumed = {predicate: facts.row_count(predicate) for predicate in heads}
        # Naive first round: every rule fires once without delta
        # restriction; derived facts append past the watermarks.
        for plan in plans:
            derived = plan.run(facts, memo=memos[id(plan)], use_seeds=use_seeds)
            if derived:
                facts.add_batch(plan.head_predicate, derived)
        # Per-head sweep state, resolved once: the reusable delta window,
        # the head relation the derivations append into, and each trigger's
        # (run, position, memo, target-relation) quad — the sweep below runs
        # tens of thousands of times on recursive workloads, so no dict or
        # attribute lookups happen inside it.
        scratch = [predicate for predicate in heads if predicate not in facts]
        # Mutable sweep entries: [window, rows, consumed-watermark, fired].
        # The row array reference is stable (relations persist across the
        # whole stratum), so the high watermark is a bare len() per sweep.
        sweep = []
        for predicate in heads:
            fired = [
                (plan.run, position, memos[id(plan)], facts.relation(plan.head_predicate))
                for plan, position in triggers.get(predicate, ())
            ]
            window = facts.window(predicate)
            sweep.append([window, window.relation.rows, consumed[predicate], fired])
        batches = rows_applied = max_batch = 0
        try:
            while True:
                advanced = False
                for entry in sweep:
                    window, rows, lo, fired = entry
                    hi = len(rows)
                    if hi <= lo:
                        continue
                    advanced = True
                    entry[2] = hi
                    if not fired:
                        continue
                    batches += 1
                    rows_applied += hi - lo
                    if hi - lo > max_batch:
                        max_batch = hi - lo
                    window.lo = lo
                    window.hi = hi
                    for run, position, memo, head_rel in fired:
                        derived = run(facts, window, position, memo, use_seeds)
                        if derived:
                            head_rel.add_batch(derived)
                if not advanced:
                    facts.prune_empty(scratch)
                    return
        finally:
            stats.delta_batches += batches
            stats.delta_rows += rows_applied
            if max_batch > stats.max_delta_batch:
                stats.max_delta_batch = max_batch


def evaluate_program(program: Program, database: Database) -> Database:
    """One-shot helper: evaluate ``program`` over ``database``."""
    return SemiNaiveEngine(program).evaluate(database)


def query_program(
    program: Program, database: Database, predicate: str
) -> FrozenSet[Tuple[object, ...]]:
    """One-shot helper: the extension of ``predicate`` after evaluation."""
    return SemiNaiveEngine(program).query(database, predicate)
