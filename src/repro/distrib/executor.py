"""The parent side of scale-out: a checkpointed process-pool executor.

:class:`ProcessExecutor` streams :class:`~repro.distrib.envelope.
TaskEnvelope`\\ s into a :class:`concurrent.futures.ProcessPoolExecutor`
with a bounded dispatch window (``workers * window_per_worker`` tasks in
flight — a 10^4-document generator never materialises), restores result
order from the envelopes' batch indexes, and survives worker death:

* every dispatch takes a journal **lease**; every completion **acks**;
* a :class:`~concurrent.futures.process.BrokenProcessPool` (the CPython
  pool's reaction to any worker dying — it fails *all* in-flight futures
  and terminates the remaining workers) is one **crash event**: the
  executor requeues every leased-but-unacked task, rebuilds the pool, and
  carries on;
* a task requeued more than ``max_requeues`` times fails its slot with a
  :class:`~repro.resilience.errors.WorkerCrashError` (a *transient*
  fetch-family error, so ``on_error`` slot semantics and resilience
  accounting treat it like any other transient infrastructure failure).

With a ``journal_path``, the work queue is durable
(:class:`~repro.distrib.journal.WorkJournal`): a killed *parent* resumes
by re-running only the leased-but-unacked tail — acknowledged results are
replayed from the journal without re-evaluating anything.

:class:`DistribStats` / :class:`DistribInfo` follow the
``ResilienceStats`` → ``ResilienceInfo`` pattern: locked counters in the
session, an immutable snapshot for monitoring
(:meth:`repro.api.Session.distrib_info`).

:func:`run_slots` is the batch slot runner every batch entry point shares:
inline, on a bounded thread window, or on a :class:`ProcessExecutor`, with
one collector applying the ``on_error`` slot semantics.  It lives here so
:mod:`repro.server` can use it without importing :mod:`repro.api`.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Generator,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from ..resilience.errors import WorkerCrashError
from ..resilience.policy import ON_ERROR_POLICIES
from .envelope import ResultEnvelope, TaskEnvelope
from .journal import JournalState, WorkJournal
from .worker import run_task

#: Start methods this module accepts (``None`` means "pick for me").
START_METHODS = ("fork", "spawn", "forkserver")


def default_start_method() -> str:
    """``"fork"`` where the platform offers it (no interpreter re-import
    per worker), ``"spawn"`` elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class CrashPlan:
    """Deterministic chaos injection for the distrib layer.

    A worker holding a task whose batch index is in ``crash_indexes``
    SIGKILLs itself mid-task (after logging the execution).  With
    ``only_first_attempt`` (the default) the requeued attempt survives, so
    recovery tests converge; without it the task burns through
    ``max_requeues`` and fails its slot with a
    :class:`~repro.resilience.errors.WorkerCrashError`.
    """

    crash_indexes: FrozenSet[int] = frozenset()
    only_first_attempt: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "crash_indexes", frozenset(self.crash_indexes))

    def should_crash(self, index: int, attempt: int) -> bool:
        if index not in self.crash_indexes:
            return False
        return attempt == 0 if self.only_first_attempt else True


@dataclass(frozen=True)
class DistribOptions:
    """Every knob of the multi-process batch paths.

    Attributes
    ----------
    workers:
        Worker process count.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``, or ``None`` for the
        platform default (:func:`default_start_method`).
    journal_path:
        Enable the durable work queue: JSONL journal at this path, atomic
        checkpoint next to it (``<path>.checkpoint``).  Re-running the
        same batch against an existing journal **resumes** it — acked
        tasks replay from the journal, only the unacknowledged tail runs.
    max_requeues:
        Crash-requeue budget per task before its slot fails with a
        :class:`~repro.resilience.errors.WorkerCrashError`.
    window_per_worker:
        Dispatch window multiplier: at most ``workers * window_per_worker``
        tasks are in flight, so generator batches stream with bounded
        memory.
    crash_plan:
        Optional :class:`CrashPlan` for the chaos tests.
    task_log:
        Optional path of an append-only execution audit log (one
        ``index pid attempt`` line per actual evaluation; the chaos tests
        count re-runs from it).
    """

    workers: int = 2
    start_method: Optional[str] = None
    journal_path: Optional[str] = None
    max_requeues: int = 2
    window_per_worker: int = 4
    crash_plan: Optional[CrashPlan] = None
    task_log: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"DistribOptions.workers={self.workers}: need >= 1")
        if self.max_requeues < 0:
            raise ValueError(
                f"DistribOptions.max_requeues={self.max_requeues}: need >= 0"
            )
        if self.window_per_worker < 1:
            raise ValueError(
                f"DistribOptions.window_per_worker={self.window_per_worker}: "
                "need >= 1"
            )
        if self.start_method is not None and self.start_method not in START_METHODS:
            raise ValueError(
                f"DistribOptions.start_method={self.start_method!r}: "
                f"expected one of {START_METHODS} or None"
            )

    def resolved_start_method(self) -> str:
        return self.start_method or default_start_method()


def resolve_distrib(workers: object) -> "DistribOptions":
    """The ``workers=`` knob of the batch APIs: ``"process"`` means stock
    options, an int means that many workers, a :class:`DistribOptions`
    passes through."""
    if isinstance(workers, DistribOptions):
        return workers
    if workers == "process":
        return DistribOptions()
    if isinstance(workers, int) and not isinstance(workers, bool):
        return DistribOptions(workers=workers)
    raise ValueError(
        f"workers={workers!r}: expected 'process', a worker count, "
        "or DistribOptions"
    )


class DistribInfo(NamedTuple):
    """An immutable snapshot of the distrib counters (see
    :class:`DistribStats`)."""

    tasks_dispatched: int = 0
    tasks_acked: int = 0
    tasks_requeued: int = 0
    worker_crashes: int = 0
    queue_depth: int = 0
    worker_compiles: Tuple[Tuple[int, int], ...] = ()


class DistribStats:
    """Thread-safe distrib accounting, aggregated across batches.

    ``tasks_dispatched`` counts submissions to the pool (requeued attempts
    count again); ``tasks_acked`` counts finished slots (including results
    replayed from a resumed journal and requeue-budget-exhausted failure
    slots); ``tasks_requeued`` counts crash requeues; ``worker_crashes``
    counts crash *events* (one broken pool = one crash, however many
    futures it takes down); ``queue_depth`` is tasks entered minus tasks
    finished — 0 between healthy batches.  ``worker_compiles`` maps worker
    pid → the highest cumulative compile count it reported, which is how
    the tests pin "each distinct program compiles once per worker".
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.tasks_dispatched = 0
        self.tasks_acked = 0
        self.tasks_requeued = 0
        self.worker_crashes = 0
        self.queue_depth = 0
        self._worker_compiles: Dict[int, int] = {}

    def on_enter(self) -> None:
        with self._lock:
            self.queue_depth += 1

    def on_dispatch(self) -> None:
        with self._lock:
            self.tasks_dispatched += 1

    def on_requeue(self) -> None:
        with self._lock:
            self.tasks_requeued += 1

    def on_crash_event(self) -> None:
        with self._lock:
            self.worker_crashes += 1

    def on_finish(self, result: ResultEnvelope) -> None:
        with self._lock:
            self.tasks_acked += 1
            self.queue_depth -= 1
            if result.pid:
                known = self._worker_compiles.get(result.pid, -1)
                if result.compile_count > known:
                    self._worker_compiles[result.pid] = result.compile_count

    def snapshot(self) -> DistribInfo:
        with self._lock:
            return DistribInfo(
                tasks_dispatched=self.tasks_dispatched,
                tasks_acked=self.tasks_acked,
                tasks_requeued=self.tasks_requeued,
                worker_crashes=self.worker_crashes,
                queue_depth=self.queue_depth,
                worker_compiles=tuple(sorted(self._worker_compiles.items())),
            )

    # -- pickling: counters cross, the lock is recreated -----------------
    def __getstate__(self):
        with self._lock:
            state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class ProcessExecutor:
    """Run a stream of task envelopes on a crash-tolerant process pool.

    One instance is reusable across batches; all per-batch state is local
    to :meth:`run`.  See the module docstring for the recovery protocol.
    """

    def __init__(
        self, options: Optional[DistribOptions] = None, stats: Optional[DistribStats] = None
    ) -> None:
        self.options = options if options is not None else DistribOptions()
        self.stats = stats if stats is not None else DistribStats()

    # -- pool plumbing ---------------------------------------------------
    def _new_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        context = multiprocessing.get_context(self.options.resolved_start_method())
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.options.workers, mp_context=context
        )

    def _armed(self, envelope: TaskEnvelope) -> TaskEnvelope:
        """The envelope as actually dispatched: chaos flag and audit log
        applied from the options."""
        options = self.options
        changes = {}
        if options.task_log is not None and envelope.task_log is None:
            changes["task_log"] = options.task_log
        plan = options.crash_plan
        if plan is not None and plan.should_crash(envelope.index, envelope.attempt):
            changes["crash"] = True
        return replace(envelope, **changes) if changes else envelope

    # -- the run loop ----------------------------------------------------
    def run(self, envelopes: Iterable[TaskEnvelope]) -> List[ResultEnvelope]:
        """Evaluate every envelope; results ordered by batch index.

        ``envelopes`` may be a generator — at most
        ``workers * window_per_worker`` tasks are in flight, and results
        accumulate per finished task, so memory stays bounded by the
        window plus the result list itself.
        """
        options = self.options
        stats = self.stats
        state = JournalState()
        journal: Optional[WorkJournal] = None
        if options.journal_path is not None:
            state = WorkJournal.load(options.journal_path)
            journal = WorkJournal(options.journal_path)
        window = options.workers * options.window_per_worker
        iterator = iter(envelopes)
        exhausted = False
        backlog: deque = deque()  # crash-requeued envelopes, re-dispatched first
        in_flight: Dict[concurrent.futures.Future, TaskEnvelope] = {}
        results: Dict[int, ResultEnvelope] = {}
        # Post-crash isolation: a dying worker fails *every* in-flight
        # future, so tasks requeued by a crash are re-dispatched one at a
        # time until each resolves — a task that crashes on every attempt
        # then only ever takes down itself after the first break, and its
        # innocent window-mates cannot burn their own requeue budget.
        # Counts the requeued tasks not yet resolved; 0 means full window.
        probation = 0
        pool = self._new_pool()

        def finish(result: ResultEnvelope) -> None:
            if journal is not None:
                journal.ack(result)
            stats.on_finish(result)
            results[result.index] = result

        def dispatch(envelope: TaskEnvelope) -> bool:
            """Submit one envelope; ``False`` when the pool broke first.

            A failed submission is *not* a lost task — the envelope never
            ran — so it goes back to the front of the backlog untouched
            (no attempt bump, no requeue record) and the caller rebuilds
            the pool."""
            armed = self._armed(envelope)
            try:
                future = pool.submit(run_task, armed)
            except BrokenProcessPool:
                backlog.appendleft(envelope)
                return False
            if journal is not None:
                journal.lease(armed.task_id, armed.attempt)
            stats.on_dispatch()
            in_flight[future] = armed
            return True

        def on_lost(envelope: TaskEnvelope) -> None:
            """A worker died holding this lease: requeue or fail the slot."""
            if envelope.attempt < options.max_requeues:
                if journal is not None:
                    journal.requeue(
                        envelope.task_id, envelope.attempt, "worker crashed"
                    )
                stats.on_requeue()
                backlog.append(envelope.requeued())
            else:
                finish(
                    ResultEnvelope(
                        task_id=envelope.task_id,
                        index=envelope.index,
                        ok=False,
                        error=WorkerCrashError(
                            f"worker crashed evaluating task {envelope.task_id} "
                            f"(slot {envelope.index}) and its requeue budget "
                            f"({options.max_requeues}) is spent",
                            index=envelope.index,
                            requeues=envelope.attempt,
                        ),
                        url=(
                            envelope.payload
                            if envelope.payload_kind == "url"
                            else None
                        ),
                    )
                )

        try:
            while True:
                # Fill the dispatch window: requeued tasks first (they hold
                # the oldest slots), then fresh tasks off the stream.
                broken_on_submit = False
                effective_window = 1 if probation else window
                while len(in_flight) < effective_window and not broken_on_submit:
                    if backlog:
                        broken_on_submit = not dispatch(backlog.popleft())
                        continue
                    if exhausted:
                        break
                    try:
                        envelope = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    stats.on_enter()
                    if journal is not None:
                        journal.task(envelope.task_id, envelope.index)
                    if state.is_acked(envelope.task_id):
                        # Resume: the previous run already finished this
                        # task — replay its recorded result, run nothing.
                        finish(state.acked[envelope.task_id])
                        continue
                    broken_on_submit = not dispatch(envelope)
                if not in_flight:
                    if broken_on_submit:
                        # The pool broke with nothing of ours in flight (the
                        # dying worker's future already drained): rebuild
                        # and carry on — the backlog still holds the task.
                        stats.on_crash_event()
                        pool.shutdown(wait=False)
                        pool = self._new_pool()
                        probation = len(backlog)
                        continue
                    break
                done, _ = concurrent.futures.wait(
                    in_flight, return_when=concurrent.futures.FIRST_COMPLETED
                )
                crashed = False
                for future in done:
                    envelope = in_flight.pop(future)
                    try:
                        finish(future.result())
                        if probation:
                            probation -= 1
                    except BrokenProcessPool:
                        crashed = True
                        on_lost(envelope)
                if crashed or broken_on_submit:
                    # One crash event: the pool is dead and every remaining
                    # in-flight future fails with it — drain them all, then
                    # rebuild the pool and continue from the backlog (one
                    # task at a time until every requeued task resolves).
                    stats.on_crash_event()
                    for future, envelope in list(in_flight.items()):
                        on_lost(envelope)
                    in_flight.clear()
                    pool.shutdown(wait=False)
                    pool = self._new_pool()
                    probation = len(backlog)
        finally:
            pool.shutdown(wait=False)
            if journal is not None:
                journal.close()
        return [results[index] for index in sorted(results)]


# ---------------------------------------------------------------------------
# The batch slot runner
# ---------------------------------------------------------------------------

#: Maps a failed in-process slot's item to its source URL (or ``None``).
SlotUrl = Optional[Callable[[Any], Optional[str]]]


def _attempt(
    work: Callable[[int, Any], Any], index: int, item: Any, url: SlotUrl
) -> ResultEnvelope:
    """One in-process slot, shaped like a worker's :func:`run_task` reply."""
    try:
        return ResultEnvelope(task_id="", index=index, ok=True, result=work(index, item))
    except Exception as error:  # noqa: BLE001 - the slot carries the error
        return ResultEnvelope(
            task_id="",
            index=index,
            ok=False,
            error=error,
            url=url(item) if url is not None else None,
        )


def _outcomes(
    items: Iterable[Any],
    work: Callable[[int, Any], Any],
    max_workers: Optional[int],
    executor: Optional[ProcessExecutor],
    url: SlotUrl,
) -> Generator[ResultEnvelope, None, None]:
    """The three execution modes of :func:`run_slots`, one outcome per slot."""
    if executor is not None:
        yield from executor.run(work(index, item) for index, item in enumerate(items))
    elif max_workers is not None and max_workers > 1:
        # At most ``max_workers * 4`` slots in flight: the input is never
        # materialised, and later slots' acquisition I/O overlaps earlier
        # slots' evaluation.
        window = max_workers * 4
        with ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-batch"
        ) as pool:
            jobs: deque = deque()
            for index, item in enumerate(items):
                jobs.append(pool.submit(_attempt, work, index, item, url))
                if len(jobs) >= window:
                    yield jobs.popleft().result()
            while jobs:
                yield jobs.popleft().result()
    else:
        for index, item in enumerate(items):
            yield _attempt(work, index, item, url)


def _collect(
    outcomes: Generator[ResultEnvelope, None, None],
    on_error: str,
    isolate: Callable[[ResultEnvelope], Any],
) -> Iterator[Tuple[int, Any]]:
    try:
        for outcome in outcomes:
            if outcome.ok:
                yield outcome.index, outcome.result
            elif on_error == "raise":
                raise outcome.error
            else:
                slot = isolate(outcome)
                if on_error == "collect":
                    yield outcome.index, slot
    finally:
        # Shuts the thread window down (waiting for its in-flight slots)
        # when the batch raises or the caller stops early.
        outcomes.close()


def run_slots(
    items: Iterable[Any],
    work: Callable[[int, Any], Any],
    *,
    on_error: str,
    isolate: Callable[[ResultEnvelope], Any],
    max_workers: Optional[int] = None,
    workers: object = None,
    stats: Optional[DistribStats] = None,
    url: SlotUrl = None,
) -> Iterator[Tuple[int, Any]]:
    """Evaluate a batch into ``(index, slot)`` pairs, lazily, in index order.

    The one runner behind every batch entry point
    (:meth:`repro.api.Session.query_many`,
    :meth:`repro.api.Session.extract_many`,
    :meth:`repro.server.pipeline.TransformationServer.run_all`).  Three
    modes produce the same :class:`ResultEnvelope`-shaped outcomes:

    * **inline** (default): ``work(index, item)`` runs in this thread, one
      item at a time;
    * **threads** (``max_workers`` > 1): a thread pool with a bounded
      window of ``max_workers * 4`` slots in flight;
    * **processes** (``workers``: ``"process"``, a count, or
      :class:`DistribOptions`): ``work(index, item)`` must instead return
      the :class:`~repro.distrib.envelope.TaskEnvelope` describing the
      slot, and a :class:`ProcessExecutor` reporting into ``stats``
      evaluates it on a worker.

    ``on_error`` is validated and interpreted here and nowhere else:
    ``"raise"`` raises the first failed slot's error (inline stops
    evaluating there; the thread window lets its in-flight slots finish; a
    process batch has already drained, so this is the lowest-index
    failure); ``"skip"`` drops failed slots; ``"collect"`` yields
    ``isolate(outcome)`` in the failed slot.  ``isolate`` runs for every
    failed slot under both ``"skip"`` and ``"collect"`` (it carries the
    caller's failure accounting).  ``url(item)`` names a failed in-process
    slot's source; worker outcomes carry the worker's own.

    The arguments are checked on the call; evaluation starts with the
    first ``next()``.
    """
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(f"on_error={on_error!r}: expected one of {ON_ERROR_POLICIES}")
    executor = None
    if workers is not None:
        executor = ProcessExecutor(resolve_distrib(workers), stats=stats)
    return _collect(
        _outcomes(items, work, max_workers, executor, url), on_error, isolate
    )
