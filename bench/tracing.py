"""In-memory span tracer that instruments code by wrapping attributes from outside it.

A span records a name, start and end on one clock, the span that was open
when it began (its parent) and an optional tag. Spans started on a thread
with no open span (pool workers) take the root span as their parent.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, NamedTuple, Optional

_MISSING = object()


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if run_end is not None and s <= run_end:
            run_end = max(run_end, e)
            continue
        if run_end is not None:
            total += run_end - run_start
        run_start, run_end = s, e
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


class Tracer:
    """Collects spans in memory; `patch` wraps a function attribute so calls record spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.root: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, tag=None):
        """Run `fn(*args, **kwargs)` inside a span.

        `name` may be a callable of (args, kwargs) for spans named by an
        argument. `tag(args, result)` labels a span that returned; a span
        that raised is tagged with the exception's type name.
        """
        kwargs = kwargs or {}
        if callable(name):
            name = name(args, kwargs)
        span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        stack.append(span_id)
        label = None
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            if tag is not None:
                label = tag(args, result)
            return result
        except BaseException as exc:
            label = ("error", type(exc).__name__)
            raise
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, label))

    def call_root(self, name: str, fn, *args, **kwargs):
        """Run `fn` as the root span; orphan spans on other threads attach to it."""
        if self.root is not None:
            raise RuntimeError("a root span is already open")
        self.root = span_id = next(self._ids)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(span_id, name, start, self.clock(), None))
            self.root = None

    def patch(self, owner, attr: str, name, tag=None) -> None:
        """Replace `owner.attr` with a wrapper that records a span per call."""
        saved = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, tag)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, saved))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def write(self, path) -> None:
        """Write the spans as JSON lines (tags that are not JSON become strings)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                tag = span.tag
                if tag is not None and not isinstance(tag, (str, int, float, bool, tuple)):
                    tag = type(tag).__name__
                fh.write(json.dumps({
                    "id": span.id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "tag": tag,
                }) + "\n")
