"""The workload protocol and the helpers the four workloads share."""

from __future__ import annotations

import contextlib
import random
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro import Session

from ..spans import Tracer


class Outcome(NamedTuple):
    """What one request produced, as judged outside the timed region.

    ``items`` feeds ``items_per_s``.  ``size`` is the request's input-size
    class and ``units`` the denominator of its per-item time; requests with
    ``linear`` set enter ``linearity_ratio``, computed per ``family`` (one
    ratio per program or input kind, combined by geometric mean).
    """

    ok: bool
    items: int
    size: int
    units: int
    linear: bool = True
    family: str = ""
    cache_hit: bool = False
    write: bool = False


class Workload:
    """One closed-loop workload.

    ``__init__`` generates every input from the seed (excluded from all
    timings); :meth:`setup` builds the system until it is ready to serve
    (timed as ``setup_s``); :meth:`prepare` makes request ``index``'s input
    and any change to the simulated world (untimed); :meth:`execute` is the
    timed request; :meth:`outcome` checks the output against an independent
    reference (untimed).  Requests are prepared strictly in index order.
    """

    name = ""
    why = ""
    #: Runs end on a multiple of this many requests, so every run holds
    #: the workload's request mix exactly.
    block = 1

    def __init__(self, seed: int, tiny: bool = False) -> None:
        """``tiny`` shrinks every input, for the benchmark's own tests."""
        self.tally: Dict[str, float] = {}

    def input_bytes(self, count: int) -> bytes:
        """A canonical serialisation of the set-up inputs and the first
        ``count`` request inputs (the determinism tests compare these)."""
        raise NotImplementedError

    def setup(self, tracer: Optional[Tracer]) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> object:
        raise NotImplementedError

    def execute(self, request: object) -> object:
        raise NotImplementedError

    def outcome(self, request: object, output: object) -> Outcome:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Monotonic counters (public ``*_info()`` surfaces plus the
        benchmark's own tallies), read before and after each traced request."""
        raise NotImplementedError

    def bump(self, key: str, by: float = 1) -> None:
        self.tally[key] = self.tally.get(key, 0) + by


def span(tracer: Optional[Tracer], name: str):
    """A span when tracing, a no-op context otherwise."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def traced(tracer: Optional[Tracer], name: str, function):
    return tracer.wrap(name, function) if tracer is not None else function


def deck(rng: random.Random, shares: Sequence[Tuple[object, int]]) -> Iterator[object]:
    """Endless draws whose mix is exact in every block: each block holds
    every key ``count`` times, shuffled.  Exact mixes keep percentiles away
    from class boundaries whatever the seed."""
    block: List[object] = [key for key, count in shares for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


def session_counters(session: Session) -> Dict[str, float]:
    analysis = session.analysis_info()
    registry = session.plan_registry_info()
    engine = session.engine_info()
    return {
        "analysis.report_hits": sum(info.hits for info in analysis.values()),
        "registry.hits": registry.hits,
        "registry.compiles": registry.misses,
        "engine.rows_interned": engine.rows_interned,
        "engine.delta_batches": engine.delta_batches,
        "engine.delta_rows": engine.delta_rows,
        "engine.closure_compiles": engine.closure_compiles,
    }
