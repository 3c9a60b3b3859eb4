"""Spans recorded by the benchmark around its calls into each layer.

Nothing is recorded inside the program: a span here brackets one call
from ``bench_e2e`` into a public function.  Spans stay in memory —
``{trace, span, parent, name, start_ns, end_ns}`` — and are written to
``trace.jsonl`` when the benchmark ends.  A layer's self time is its
span minus the part of that interval its children cover.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._trace = 0
        self._lock = threading.Lock()   # connections record concurrently

    def new_trace(self) -> int:
        self._trace += 1
        return self._trace

    def add(self, name: str, start_ns: int, end_ns: int, *, parent=None,
            trace=None) -> int:
        with self._lock:
            span_id = len(self.spans) + 1
            self.spans.append(
                {
                    "trace": self._trace if trace is None else trace,
                    "span": span_id,
                    "parent": parent,
                    "name": name,
                    "start_ns": int(start_ns),
                    "end_ns": int(end_ns),
                }
            )
        return span_id

    @contextlib.contextmanager
    def span(self, name: str):
        """Bracket one call; nests under the enclosing ``span``."""
        parent = self._stack[-1] if self._stack else None
        # Reserve the id first so children can name their parent.
        span_id = self.add(name, 0, 0, parent=parent)
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            record = self.spans[span_id - 1]
            record["start_ns"], record["end_ns"] = start, end

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def self_times(spans) -> dict[int, int]:
    """``span id -> self ns``: duration minus the union of the child
    intervals that fall inside it."""
    children: dict[int, list[tuple[int, int]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(
                (record["start_ns"], record["end_ns"])
            )
    out = {}
    for record in spans:
        start, end = record["start_ns"], record["end_ns"]
        covered, cursor = 0, start
        for lo, hi in sorted(children.get(record["span"], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[record["span"]] = (end - start) - covered
    return out


def coverage(spans, whole: str, stages) -> float:
    """Per trace, the sum of the ``stages`` spans over the ``whole``
    span; the median over the traces.  It says how much of the
    end-to-end time the hand decomposition explains (the median, so one
    garbage-collection pause in one sample does not decide it)."""
    totals: dict[int, list[int]] = {}
    for record in spans:
        if record["name"] == whole or record["name"] in stages:
            pair = totals.setdefault(record["trace"], [0, 0])
            pair[record["name"] != whole] += record["end_ns"] - record["start_ns"]
    ratios = sorted(staged / total for total, staged in totals.values() if total)
    if not ratios:
        raise ValueError(f"no {whole!r} spans recorded")
    return ratios[len(ratios) // 2]
