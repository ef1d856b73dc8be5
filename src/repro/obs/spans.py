"""Hierarchical spans: perf_counter-timed sections with a parent tree.

``with span("engine.backend.count", backend="batched"):`` marks one
timed section.  A span records only inside a :class:`TraceSession`
(what the CLI's ``--trace FILE`` opens).  Outside one, :func:`span`
returns a shared no-op object: no allocation, no clock read, no
registry write.  Inside one, every finished span is appended to the
process :class:`SpanRecorder` as a parent-linked event, exportable as
JSONL.  The recorder is bounded (:data:`MAX_TRACE_SPANS`); overflow
increments a drop counter instead of growing without bound.

Parent links use a :mod:`contextvars` variable, so the tree is correct
across threads and asyncio tasks: concurrent callers never see each
other's frames.

Timing uses :func:`repro.obs.clock.perf_counter` exclusively
(monotonic; wallclock-hygiene compliant).  The only wall-clock value in
a trace is the export timestamp in the JSONL header line, read through
the sanctioned :mod:`repro.obs.clock`.
"""

from __future__ import annotations

import json
import os
import threading
from contextvars import ContextVar
from typing import Any, Dict, List, Optional, Union

from . import clock
from .metrics import get_registry

#: Recorder capacity: spans beyond this are counted, not stored, so a
#: long traced run cannot grow without bound.
MAX_TRACE_SPANS = 100_000

#: Whether a :class:`TraceSession` is open (process-wide, so spans on
#: worker threads record too).
_TRACING = False


class SpanRecorder:
    """Bounded, thread-safe store of finished span events."""

    def __init__(self, limit: int = MAX_TRACE_SPANS) -> None:
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._next_id = 0
        self.limit = limit
        self.dropped = 0
        #: perf_counter epoch event ``start_s`` offsets are relative to.
        self.origin = clock.perf_counter()

    def next_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def record(self, event: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._events) < self.limit:
                self._events.append(event)
                return
            self.dropped += 1
        get_registry().counter("obs.spans.dropped").inc()

    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return every stored event (oldest first)."""
        with self._lock:
            events, self._events = self._events, []
            self.dropped = 0
            return events

    def restore(self, events: List[Dict[str, Any]], dropped: int) -> None:
        """Put drained *events* and their *dropped* count back, ahead of
        anything stored since; events past :attr:`limit` count as dropped."""
        with self._lock:
            merged = events + self._events
            self._events = merged[: self.limit]
            self.dropped += dropped + len(merged) - len(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


_RECORDER = SpanRecorder()


def get_recorder() -> SpanRecorder:
    """The process-global recorder traced spans append to."""
    return _RECORDER


#: The innermost open span's id in this thread/task.
_CURRENT: ContextVar[Optional[int]] = ContextVar("repro_obs_current_span", default=None)


class _NullSpan:
    """The untraced span: one shared instance, no state, no timing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """One recorded section inside a trace session; use via :func:`span`."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_start", "_token")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "Span":
        self.span_id = _RECORDER.next_id()
        self.parent_id = _CURRENT.get()
        self._token = _CURRENT.set(self.span_id)
        self._start = clock.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        duration = clock.perf_counter() - self._start
        _CURRENT.reset(self._token)
        _RECORDER.record({
            "kind": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": round(self._start - _RECORDER.origin, 9),
            "duration_s": round(duration, 9),
            "attrs": self.attrs,
        })
        return False


def span(name: str, **attrs: Any) -> Union[Span, _NullSpan]:
    """A context manager timing one named section of work.

    *name* must be a static string (the ``telemetry-discipline`` lint
    rule enforces this); varying detail goes into ``**attrs``, which
    traces carry per event.  Outside a :class:`TraceSession` this is
    the shared no-op span.
    """
    if not _TRACING:
        return _NULL_SPAN
    return Span(name, attrs)


class TraceSession:
    """Capture one operation's span tree and write it as JSONL.

    Turns span recording on for its dynamic extent, drains the recorder
    on entry (the trace starts clean) and on exit (the trace owns
    exactly the spans that finished inside it).  A session opened
    inside another sets the outer session's spans aside on entry and
    puts them back, followed by its own, on exit, so the outer session
    still owns every span that finished inside it.  The CLI's
    ``--trace FILE`` wraps a command handler in one of these.

    >>> with TraceSession() as session:
    ...     with span("lab.run"):
    ...         pass
    >>> with span("lab.run"):
    ...     pass
    >>> [event["name"] for event in session.events]
    ['lab.run']
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0
        self._outer = False
        self._outer_events: List[Dict[str, Any]] = []
        self._outer_dropped = 0

    def __enter__(self) -> "TraceSession":
        global _TRACING
        self._outer, _TRACING = _TRACING, True
        self._outer_dropped = _RECORDER.dropped
        self._outer_events = _RECORDER.drain()
        return self

    def __exit__(self, *exc: Any) -> bool:
        global _TRACING
        self.dropped = _RECORDER.dropped
        self.events = _RECORDER.drain()
        if self._outer:
            _RECORDER.restore(
                self._outer_events + self.events, self._outer_dropped + self.dropped
            )
        self._outer_events = []
        _TRACING = self._outer
        return False

    def write_jsonl(self, path: Union[str, "os.PathLike[str]"]) -> int:
        """Write header + one line per span; returns the span count.

        Line 1 is the trace header (``kind: "trace"``, schema version,
        the constant ``mode: "full"``, span/drop counts, export
        timestamp); every further line is one span event with
        ``id``/``parent`` links forming the tree.  See
        ``docs/OBSERVABILITY.md`` for the field catalog.
        """
        header = {
            "v": 1,
            "kind": "trace",
            "mode": "full",
            "spans": len(self.events),
            "dropped": self.dropped,
            "exported_unix": round(clock.wall_time(), 3),
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for event in self.events:
                handle.write(json.dumps(event, sort_keys=True, default=str) + "\n")
        return len(self.events)
