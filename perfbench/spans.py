"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: its name, start, end, the
span that caused it (the innermost span open on the same thread) and
the request id it serves.  Spans stay in memory while the run measures
and are written out once, at the end, so the recorder adds no I/O to
the timed phase.  Spans that begin on one thread and end on another
(awaited coroutines) are recorded whole with :meth:`Tracer.record` and
have no parent.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Optional[int] = None
    phase: str = "run"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; :attr:`phase` tags each span with the benchmark
    phase it was opened in, and :attr:`active` gates recording."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self.phase = "run"
        self._ids = itertools.count()
        self._local = threading.local()

    def new_id(self) -> int:
        """A fresh id, unique among span and request ids."""
        return next(self._ids)

    def _stack(self) -> List[Tuple[int, int]]:
        """The open spans of this thread, as ``(span id, request id)``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self, name: str, rid: Optional[int] = None, **attrs: Any
    ) -> Iterator[Dict[str, Any]]:
        """Time the ``with`` body as one span; the yielded dict is the
        span's attributes, so the body can add results (sizes, counts).
        A span without a request id takes its parent's; a top-level one
        starts a new request."""
        if not self.active:
            yield attrs
            return
        stack = self._stack()
        sid = self.new_id()
        parent = stack[-1][0] if stack else None
        if rid is None:
            rid = stack[-1][1] if stack else sid
        phase = self.phase
        stack.append((sid, rid))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, rid, phase, attrs))

    def record(
        self, name: str, start: float, end: float, rid: Optional[int] = None, **attrs: Any
    ) -> None:
        """Add a span timed by the caller (no parent)."""
        if self.active:
            self.spans.append(
                Span(self.new_id(), name, start, end, None, rid, self.phase, attrs)
            )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), default=str) + "\n")


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of its interval that its
    child spans cover (children clipped to the parent's interval)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.sid: span for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            parent = by_id[span.parent]
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return {
        span.sid: span.duration - union_length(children.get(span.sid, []))
        for span in spans
    }


def outermost(spans: Sequence[Span], prefix: str) -> List[Span]:
    """Spans named ``prefix*`` with no ancestor of the same prefix -- the
    calls into a layer from outside it (nested re-entries excluded)."""
    by_id = {span.sid: span for span in spans}
    out = []
    for span in spans:
        if not span.name.startswith(prefix):
            continue
        parent = by_id.get(span.parent) if span.parent is not None else None
        nested = False
        while parent is not None:
            if parent.name.startswith(prefix):
                nested = True
                break
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if not nested:
            out.append(span)
    return out
