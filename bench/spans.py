"""Span recorder for the traced benchmark run.

The recorder replaces functions of the dialoprep modules with timing wrappers
from outside the program: a module attribute that the CLI, or another
function of the same module, looks up at call time. Each call becomes a span
with a name, start, end, parent span and run id (one run id per CLI
invocation). Spans stay in memory until the caller writes them out.

A span opened on a worker thread with no open span of its own (annotation
requests run on a thread pool) takes as parent the innermost span open on the
main thread. A layer's self time is its spans' durations minus the part of
each span that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, TextIO


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    """Spans and counts of one traced pass, and the attributes it replaced."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run = ""
        self._ids = itertools.count()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = self._parent(stack)
        span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run))

    def wrap(self, owner, attr: str, name: str | Callable[..., str],
             on_result: Callable | None = None) -> None:
        """Time every call of ``owner.attr`` as a span.

        ``name`` may be a function of the call's arguments. ``on_result(counts,
        result, *args, **kwargs)`` runs after the span closes, to add counts.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            result = self.call(span_name, original, *args, **kwargs)
            if on_result is not None:
                on_result(self.counts, result, *args, **kwargs)
            return result

        self._patch(owner, attr, traced)

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` under ``key`` without a span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every replaced attribute back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = _covered(children.get(span.span_id, ()), span.start, span.end)
            totals[span.name] += (span.end - span.start) - covered
        return dict(totals)

    def span_counts(self) -> Counter:
        return Counter(span.name for span in self.spans)

    def write(self, fh: TextIO) -> None:
        """Append every span to ``fh`` as one JSON object per line."""
        for span in self.spans:
            fh.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
