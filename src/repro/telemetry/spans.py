"""Structured tracing: spans, the tracer, and the JSONL trace sink.

A :class:`Span` is one timed unit of work with a name, attributes, and
point-in-time events; spans nest into per-request trace trees (request →
retry attempt → ladder rung → enumerator run → partitioner pass).  The
:class:`Tracer` maintains a **thread-local** span stack so the service's
worker threads trace concurrently without sharing state, and hands each
finished root tree to an optional :class:`TraceSink` that appends it as
one JSONL line.

Determinism notes: span timing uses an injectable monotonic ``clock``
(``time.perf_counter`` by default) and nothing in this module draws
randomness or influences control flow — tracing a run must never change
the plan it produces.  Tests inject a counting clock to get stable
durations.

The clock is wall time for humans, not entropy for the optimizer; the
``bench-clock`` lint rule is about timing-dependent *decisions*, which
spans never make.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "MAX_EVENTS_PER_SPAN",
    "MAX_ROOTS",
    "Span",
    "Tracer",
    "TraceSink",
    "NULL_SPAN",
]

#: Finished root spans a :class:`Tracer` keeps in memory; later roots are
#: counted in ``dropped_roots`` (a sink still receives them).
MAX_ROOTS = 4096
#: Events one span keeps; later events are dropped.
MAX_EVENTS_PER_SPAN = 128


class Span:
    """One timed unit of work inside a trace tree.

    Use as a context manager via :meth:`Tracer.span`; entering pushes the
    span onto the calling thread's stack (so nested spans become
    children), exiting pops it and records the duration.  ``set`` attaches
    attributes, ``event`` records timestamped point events (breaker trips,
    cache hits, budget exhaustion).
    """

    __slots__ = (
        "name",
        "attrs",
        "events",
        "children",
        "start",
        "end",
        "status",
        "_tracer",
    )

    def __init__(self, name: str, tracer: Optional["Tracer"] = None):
        self.name = name
        self.attrs: Dict[str, object] = {}
        self.events: List[Dict[str, object]] = []
        self.children: List["Span"] = []
        self.start: float = 0.0
        self.end: Optional[float] = None
        self.status: str = "ok"
        self._tracer = tracer

    def set(self, **attrs: object) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: object) -> None:
        """Record a point-in-time event on this span."""
        if self._tracer is not None:
            if len(self.events) >= MAX_EVENTS_PER_SPAN:
                return
            at = self._tracer.clock() - self.start
        else:
            at = 0.0
        record: Dict[str, object] = {"name": name, "at": at}
        if attrs:
            record.update(attrs)
        self.events.append(record)

    @property
    def duration(self) -> Optional[float]:
        """Seconds from enter to exit; ``None`` while still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.events:
            record["events"] = [dict(event) for event in self.events]
        if self.children:
            record["children"] = [child.as_dict() for child in self.children]
        return record

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        dur = self.duration
        timing = f"{dur * 1000:.3f} ms" if dur is not None else "open"
        return f"Span({self.name!r}, {timing}, {len(self.children)} children)"


class _NullSpan:
    """Inert stand-in returned when tracing is off.

    Supports the whole :class:`Span` surface as no-ops so instrumented
    code never branches on "is tracing enabled" beyond obtaining its span.
    A single shared instance (:data:`NULL_SPAN`) keeps the disabled path
    allocation-free.
    """

    __slots__ = ()

    name = "null"
    attrs: Dict[str, object] = {}
    events: List[Dict[str, object]] = []
    children: List[Span] = []
    start = 0.0
    end = 0.0
    status = "ok"
    duration = 0.0

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: object) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def as_dict(self) -> Dict[str, object]:
        return {"name": "null"}

    def walk(self):
        return iter(())

    def __repr__(self) -> str:
        return "NULL_SPAN"


#: Shared inert span used whenever tracing is disabled.
NULL_SPAN = _NullSpan()


class TraceSink:
    """Appends finished root span trees to a file, one JSON object per line.

    Opens the file lazily on first write so constructing a sink (e.g. from
    a CLI flag default) costs nothing, and serializes writes under a lock
    because worker threads finish roots concurrently.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._file = None
        self.written = 0

    def emit(self, span: Span) -> None:
        line = json.dumps(span.as_dict(), sort_keys=True)
        with self._lock:
            if self._file is None:
                # A streaming JSONL sink cannot use the tmp-file/rename
                # helper (it would clobber earlier lines per emit); a torn
                # final line only truncates the trace being written.
                self._file = open(self.path, "a", encoding="utf-8")  # repro: disable=durable-write
            self._file.write(line + "\n")
            self._file.flush()
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        with self._lock:
            return f"TraceSink({self.path!r}, {self.written} traces)"


class Tracer:
    """Builds trace trees from nested :meth:`span` calls.

    Each thread gets its own span stack (``threading.local``), so
    concurrently served requests produce independent trees.  Finished
    roots are retained in :attr:`roots` (bounded by :data:`MAX_ROOTS`) and,
    when a ``sink`` is configured, appended to it as JSONL.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        sink: Optional[TraceSink] = None,
    ):
        self.clock = clock
        self.sink = sink
        self._local = threading.local()
        self._roots_lock = threading.Lock()
        self.roots: List[Span] = []
        #: Roots dropped because :data:`MAX_ROOTS` was reached (sink still
        #: receives them; only in-memory retention is bounded).
        self.dropped_roots = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs: object) -> Span:
        """Create a span; ``with tracer.span("x"):`` nests it automatically."""
        span = Span(name, tracer=self)
        if attrs:
            span.attrs.update(attrs)
        return span

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        span.start = self.clock()
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        # Remove by identity, scanning from the top: a generator holding
        # an open span may be abandoned mid-iteration, leaving its span
        # below later, properly closed ones.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                del stack[index:]
                break
        else:
            return  # span was never pushed (or already cleaned up)
        if not stack:
            self._finish_root(span)

    def _finish_root(self, root: Span) -> None:
        with self._roots_lock:
            if len(self.roots) < MAX_ROOTS:
                self.roots.append(root)
            else:
                self.dropped_roots += 1
        if self.sink is not None:
            self.sink.emit(root)

    def finished_spans(self) -> List[Span]:
        """Every span in every retained root, depth-first."""
        with self._roots_lock:
            roots = list(self.roots)
        spans: List[Span] = []
        for root in roots:
            spans.extend(root.walk())
        return spans

    def reset(self) -> None:
        """Drop retained roots (the sink's file is untouched)."""
        with self._roots_lock:
            self.roots = []
            self.dropped_roots = 0

    def __repr__(self) -> str:
        with self._roots_lock:
            return f"Tracer({len(self.roots)} roots, sink={self.sink!r})"
