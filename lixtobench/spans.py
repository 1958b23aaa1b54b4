"""In-memory span tracing for the traced benchmark run.

Spans are recorded by the benchmark's own code around its calls into each
layer's public entry points (and around instance methods it wraps from
outside, such as a pipeline component's ``process``).  Nothing inside
``repro`` is instrumented.  A span is ``(name, start, end, parent,
request)``; ``parent`` is the index of the enclosing span in
:attr:`Tracer.spans`.  A layer's self time is its spans' durations minus
the part covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional

#: The span that wraps one whole request; its self time is the part of the
#: request no layer span covers (the benchmark's own glue plus anything the
#: layer spans cannot reach from outside the program).
REQUEST = "request"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]


class _Open:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Open":
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append(None)  # type: ignore[arg-type]  # filled on exit
        tracer._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        parent = tracer._stack[-1] if tracer._stack else None
        tracer.spans[self.index] = Span(self.name, self.start, end, parent, tracer.request)


class Tracer:
    """Collects spans in memory; single-threaded, like the benchmark client."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.request: Optional[int] = None

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with every call recorded as a span named ``name``."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with _Open(self, name):
                return function(*args, **kwargs)

        return traced

    def self_times(self) -> Dict[Optional[int], Dict[str, float]]:
        """Self seconds per request id (``None``: outside requests), per span name."""
        table: Dict[Optional[int], Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            duration = span.end - span.start
            table[span.request][span.name] += duration
            if span.parent is not None:
                table[span.request][self.spans[span.parent].name] -= duration
        return table

    def total(self, name: str) -> float:
        """Total inclusive seconds of the spans named ``name``."""
        return sum(span.end - span.start for span in self.spans if span.name == name)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent, request)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
