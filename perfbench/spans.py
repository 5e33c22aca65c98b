"""In-memory span recorder for the traced run.

``Tracer.wrap`` replaces a function or method where its callers look it up
(a module global or a class attribute), so the program itself is unchanged.
Each call records one span: id, name, start, end, parent span,
operation id and thread, plus an optional tag (the payload-size bucket).
Counts are recorded at the same boundaries. Spans stay in memory until the
run writes them out at exit.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int  # -1 for a root span
    op: int  # operation the main thread had in flight when the span started
    thread: str
    tag: str | None


def size_bucket(n: int) -> str:
    """Nearest decade of a byte count: 70 -> '100B', 13_400 -> '10kB'."""
    decade = round(math.log10(max(n, 1)))
    unit, power = next((u, p) for u, p in (("MB", 6), ("kB", 3), ("B", 0))
                       if decade >= p)
    return f"{10 ** (decade - power)}{unit}"


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns: its duration minus its children's.

    A span's children ran on its own thread (parents come from a
    thread-local stack), one after another and inside it, so their
    durations add up without overlap.
    """
    children_ns = Counter()
    for span in spans:
        if span.parent >= 0:
            children_ns[span.parent] += span.end_ns - span.start_ns
    return {span.id: span.end_ns - span.start_ns - children_ns[span.id]
            for span in spans}


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: int = 1) -> None:
        with self._count_lock:
            self.counts[key] += amount

    def sample(self, key: str, value: float) -> None:
        self.samples[key].append(value)

    def wrap(self, owner, attr: str, name: str, tag=None, after=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper until ``uninstall``.

        ``tag(args, result)`` labels the span; ``after(tracer, args, result)``
        records counts once the call has returned.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            span_id = next(tracer._ids)
            op = tracer.op
            thread = threading.current_thread().name
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(Span(span_id, name, start, end, parent, op,
                                         thread, "error"))
                raise
            end = time.perf_counter_ns()
            stack.pop()
            tracer.spans.append(Span(span_id, name, start, end, parent, op, thread,
                                     tag(args, result) if tag is not None else None))
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack
