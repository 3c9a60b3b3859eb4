"""Request tracing: timed spans, contextvar propagation, trace ring.

A :class:`Trace` is one request's timeline — an ordered list of named
:class:`Span`\\ s covering the serving pipeline (``parse`` →
``canonicalize`` → ``route`` → ``cache_lookup`` → ``coalesce_wait`` →
``evaluate`` → ``encode``).  The server activates the trace in a
:mod:`contextvars` context variable for the duration of the request
task, so layers that never see the request dict — the
:class:`~repro.plan.planner.Planner` and
:class:`~repro.api.explorer.Explorer` — annotate it with
:func:`span` without any plumbing::

    with span("parse"):
        query = parse_query(sql)

:func:`span` is a no-op returning a shared null context when no trace
is active, so library code pays one ``ContextVar.get`` when tracing is
off (the ≤5% overhead budget the serve benchmark gates).

Single-flight makes one span *shared*: N same-key requests answered by
one execution each keep their own trace (distinct ids; every joiner
has its own ``coalesce_wait`` span) but see the **same** ``evaluate``
span — same ``span_id`` — because only one evaluation happened.  That is the
provenance story: a trace tells you which execution answered you, not
just how long you waited.  Each waiter records a *view* of that span
(:meth:`Span.within`) clipped to its own submit → resolve interval, so
a request that joined an execution mid-flight is charged only for the part
it waited through and its stages never sum to more than its own time.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import threading
import time
from collections import deque
from contextvars import ContextVar

__all__ = [
    "Span",
    "Trace",
    "TraceRing",
    "activate",
    "current_trace",
    "span",
]

#: Trace ids are 63-bit so they survive the signed i64 of the binary
#: frame header; the low 31 bits double as the header's trace hint.
TRACE_ID_BITS = 63

_ids = random.Random()
_span_ids = itertools.count(1)
_CURRENT: ContextVar["Trace | None"] = ContextVar("repro_trace", default=None)
_NOOP = contextlib.nullcontext()


def new_trace_id() -> int:
    return _ids.getrandbits(TRACE_ID_BITS) or 1


class Span:
    """One timed step; ``duration_s`` is filled by :meth:`finish`."""

    __slots__ = ("name", "span_id", "started_s", "duration_s", "meta", "_t0")

    def __init__(self, name: str, **meta):
        self.name = name
        self.span_id = next(_span_ids)
        self.meta = meta or None
        self.started_s = time.time()
        self._t0 = time.perf_counter()
        self.duration_s = 0.0

    def finish(self) -> "Span":
        self.duration_s = time.perf_counter() - self._t0
        return self

    def within(self, start: float, end: float) -> "Span":
        """The part of this finished span inside ``[start, end]``
        (``time.perf_counter`` seconds): a view with the same name, id
        and meta whose duration is the overlap.  The span is untouched."""
        view = Span.__new__(Span)
        view.name, view.span_id, view.meta = self.name, self.span_id, self.meta
        view._t0 = min(max(self._t0, start), end)
        view.started_s = self.started_s + (view._t0 - self._t0)
        view.duration_s = max(
            min(self._t0 + self.duration_s, end) - view._t0, 0.0
        )
        return view

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "span_id": self.span_id,
            "duration_ms": round(self.duration_s * 1e3, 4),
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        return out


class Trace:
    """One request's spans, id, and wall-clock envelope."""

    __slots__ = ("trace_id", "op", "session", "started_s", "_t0", "spans",
                 "status", "cached")

    def __init__(self, op: str = "query", session: str | None = None,
                 trace_id: int | None = None):
        self.trace_id = trace_id or new_trace_id()
        self.op = op
        self.session = session
        self.started_s = time.time()
        self._t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.status: int | None = None
        self.cached: bool | None = None

    @property
    def hex_id(self) -> str:
        return format(self.trace_id, "016x")

    @property
    def hint(self) -> int:
        """The 31-bit id hint that rides the binary frame header."""
        return self.trace_id & 0x7FFFFFFF

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self._t0

    @contextlib.contextmanager
    def span(self, name: str, **meta):
        entry = Span(name, **meta)
        try:
            yield entry
        finally:
            entry.finish()
            self.spans.append(entry)

    def begin(self, name: str, **meta) -> Span:
        """Open a span the caller finishes with :meth:`attach_wait`."""
        return Span(name, **meta)

    def attach_wait(self, wait: Span, shared) -> None:
        """Finish ``wait`` — one request's submit → resolve interval on
        the coalescer — and split it between the ``shared`` evaluate
        spans that answered it and pure queueing.  Each distinct span is
        attached as a view clipped to the part of the interval that no
        earlier execution already covers; ``wait`` keeps the rest, so the
        views and the wait sum to exactly the interval."""
        wait.finish()
        cursor, end = wait._t0, wait._t0 + wait.duration_s
        distinct = {entry.span_id: entry for entry in shared}.values()
        for entry in sorted(distinct, key=lambda entry: entry._t0):
            view = entry.within(cursor, end)
            cursor = max(cursor, view._t0 + view.duration_s)
            wait.duration_s -= view.duration_s
            self.spans.append(view)
        wait.duration_s = max(wait.duration_s, 0.0)
        self.spans.append(wait)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.hex_id,
            "op": self.op,
            "session": self.session,
            "started_s": round(self.started_s, 6),
            "elapsed_ms": round(self.elapsed_s * 1e3, 4),
            "status": self.status,
            "cached": self.cached,
            "spans": [entry.to_dict() for entry in list(self.spans)],
        }


def current_trace() -> Trace | None:
    return _CURRENT.get()


@contextlib.contextmanager
def activate(trace: Trace):
    """Make ``trace`` the ambient trace of this task/thread context."""
    token = _CURRENT.set(trace)
    try:
        yield trace
    finally:
        _CURRENT.reset(token)


def span(name: str, **meta):
    """Span on the ambient trace; shared no-op when tracing is off."""
    trace = _CURRENT.get()
    if trace is None:
        return _NOOP
    return trace.span(name, **meta)


class TraceRing:
    """Bounded ring of recently finished traces (newest last)."""

    def __init__(self, capacity: int = 256):
        self._ring: deque = deque(maxlen=max(int(capacity), 0))
        self._lock = threading.Lock()

    def record(self, trace: Trace) -> None:
        if self._ring.maxlen == 0:
            return
        with self._lock:
            self._ring.append(trace)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def traces(self) -> list[Trace]:
        with self._lock:
            return list(self._ring)

    def snapshot(self) -> list[dict]:
        return [trace.to_dict() for trace in self.traces()]
