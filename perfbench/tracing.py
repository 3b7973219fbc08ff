"""In-memory span tracer that wraps functions from outside the program.

``patched(tracer, table)`` replaces module attributes with timing wrappers
for the duration of a ``with`` block and restores the originals on exit.
Each wrapper records one ``Span``: its name, thread, start and end, the
span that caused it, the exception type if it raised, and optional counts
computed from the call's arguments and result after the span has closed.

Span stacks are thread-local. A span opened on a thread with an empty
stack (a pool worker) takes as parent the innermost span open on the
thread that created the tracer, which is the thread that submitted the
work. Self time is a span's duration minus the union of its children's
intervals, so parallel children on two threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    error: str | None
    counts: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.owner = threading.get_ident()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        if threading.get_ident() == self.owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def drain(self) -> list[Span]:
        """Finished spans since the last drain, in completion order."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``count(result, *args)`` gives its counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = self._owner_stack
                parent = owner[-1] if owner else None
            sid = next(self._ids)
            thread = threading.get_ident()
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(sid, parent, name, thread, start, end, type(exc).__name__, None)
                )
                raise
            end = time.perf_counter()
            stack.pop()
            counts = count(result, *args) if count is not None else None
            self.spans.append(Span(sid, parent, name, thread, start, end, None, counts))
            return result

        return traced


@contextmanager
def patched(tracer: Tracer, table):
    """Install wrappers for ``(module, attribute, span name, count)`` rows.

    The original attributes are restored when the block exits, also on error.
    """
    saved = []
    try:
        for module_name, attr, name, count in table:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def current(table) -> list:
    """The objects now bound at each ``(module, attribute, ...)`` row."""
    return [getattr(importlib.import_module(row[0]), row[1]) for row in table]


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - _covered(clipped)
    return out
