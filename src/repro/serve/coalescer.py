"""Request coalescing by group commit: flush when idle, batch while busy.

The paper's query path makes batching cheap — a batch of counting
queries goes through the planner's batched executor in one flush — but
a miss should never *wait* for company that may not come.  The
:class:`Coalescer` therefore batches only what concurrency already
queued, the way a database commits a group of transactions:

* **idle** — a key that arrives while no flush is in flight is flushed
  on the next turn of the event loop (``loop.call_soon``), together
  with everything else submitted in that turn (a pipelined batch's
  misses, say); a lone miss pays one loop turn, not a timer;
* **busy** — while a flush is in flight, new keys collect and flush
  the moment it completes, so the wait is exactly the observed
  concurrency;
* **size** — a collecting batch also flushes early when it reaches
  ``max_batch`` distinct keys, bounding worst-case queueing under load;
* **single-flight** — requests carrying the same **key** (the plan's
  canonical cache key) share one execution, whether they land in the
  same batch or the key's flush is already in flight.

A flush runs ``run_batch`` (typically ``Planner.execute_many`` via the
server's thread executor) once for its unique items and fans results
back to every waiter.  The class is asyncio-native and generic: keys
are any hashable, items are opaque.  Counters live in the shared
:class:`~repro.obs.MetricsRegistry` (flushes labelled ``idle`` /
``busy`` / ``size`` / ``drain`` by what triggered them).
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Hashable, Sequence

from repro.errors import ReproError
from repro.obs import MetricsRegistry


class Coalescer:
    """Group-commit micro-batching with same-key single-flight.

    ``run_batch`` receives the **unique** items of a batch (first
    submission wins per key) and must return one result per item, in
    order.  It is awaited, so pass an async function; CPU-bound
    executors should wrap their work in ``loop.run_in_executor``.
    """

    def __init__(
        self,
        run_batch: Callable[[list], Awaitable[Sequence]],
        *,
        max_batch: int = 64,
        metrics: MetricsRegistry | None = None,
    ):
        if max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {max_batch}")
        self.run_batch = run_batch
        self.max_batch = int(max_batch)
        # key -> (item, [futures waiting on it]): collecting, and in a
        # flush that has not resolved yet (the single-flight table).
        self._pending: dict[Hashable, tuple[object, list[asyncio.Future]]] = {}
        self._in_flight: dict[Hashable, tuple[object, list[asyncio.Future]]] = {}
        self._idle_flush_queued = False
        self._flush_tasks: set[asyncio.Task] = set()
        self._closed = False
        # -- counters (stats endpoint / bench) --
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._submitted = self.metrics.counter(
            "repro_coalescer_submitted_total", "Submissions accepted."
        )
        self._coalesced = self.metrics.counter(
            "repro_coalescer_coalesced_total",
            "Submissions answered by another submission's execution.",
        )
        self._flushes = self.metrics.counter(
            "repro_coalescer_flushes_total",
            "Batches flushed, by trigger (idle, busy, size, drain).",
            ("reason",),
        )
        self._largest_batch = self.metrics.gauge(
            "repro_coalescer_largest_batch",
            "Most distinct keys one flush ever carried.",
        )

    # -- submission -------------------------------------------------------
    async def submit(self, key: Hashable, item) -> object:
        """Enqueue ``item`` under ``key``; resolves with its result.

        A submission whose key is already collecting or in flight
        shares that execution and therefore its result object.
        """
        if self._closed:
            raise ReproError("coalescer is closed")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._submitted.inc()
        entry = self._in_flight.get(key) or self._pending.get(key)
        if entry is not None:
            self._coalesced.inc()
            entry[1].append(future)
        else:
            self._pending[key] = (item, [future])
            if len(self._pending) >= self.max_batch:
                self._flush(loop, "size")
            elif not self._in_flight and not self._idle_flush_queued:
                self._idle_flush_queued = True
                loop.call_soon(self._flush_when_idle, loop)
        return await future

    # -- flushing ---------------------------------------------------------
    def _flush_when_idle(self, loop) -> None:
        self._idle_flush_queued = False
        # A size flush may have started since; its completion takes
        # what is still collecting.
        if self._pending and not self._in_flight:
            self._flush(loop, "idle")

    def _flush(self, loop, reason: str) -> None:
        batch, self._pending = self._pending, {}
        self._in_flight.update(batch)
        self._flushes.labels(reason=reason).inc()
        self._largest_batch.set_max(len(batch))
        task = loop.create_task(self._run(loop, batch))
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)

    async def _run(self, loop, batch: dict) -> None:
        items = [item for item, _ in batch.values()]
        try:
            results = await self.run_batch(items)
        except BaseException as error:
            results = [error] * len(batch)
        # No await from here on: a key leaves the single-flight table in
        # the same step that answers its waiters, so a later submission
        # either joined this flush or starts a fresh one.
        for key, result in zip(batch, results):
            _, futures = self._in_flight.pop(key)
            for future in futures:
                if future.cancelled():
                    continue
                # Per-item failures: run_batch may map a single bad
                # item to an exception instance instead of poisoning
                # the whole flush.
                if isinstance(result, BaseException):
                    future.set_exception(result)
                else:
                    future.set_result(result)
        if self._pending:
            self._flush(loop, "busy")

    async def drain(self) -> None:
        """Flush pending work and wait for every in-flight flush to
        finish — waiters must hold answers before the loop goes away."""
        loop = asyncio.get_running_loop()
        while self._pending or self._flush_tasks:
            if self._pending:
                self._flush(loop, "drain")
            await asyncio.gather(
                *list(self._flush_tasks), return_exceptions=True
            )

    async def close(self) -> None:
        """Flush pending work and reject future submissions."""
        self._closed = True
        await self.drain()

    # -- introspection ----------------------------------------------------
    @property
    def submitted(self) -> int:
        return int(self._submitted.value)

    @property
    def coalesced(self) -> int:
        return int(self._coalesced.value)

    @property
    def flushes(self) -> int:
        return int(self._flushes.total())

    def flushes_by(self, reason: str) -> int:
        """Flushes triggered by ``reason`` (idle, busy, size, drain)."""
        return int(self._flushes.labels(reason=reason).value)

    @property
    def largest_batch(self) -> int:
        return int(self._largest_batch.value)

    def stats(self, snapshot: dict | None = None) -> dict:
        # ``snapshot`` is accepted for signature parity with the other
        # components; the coalescer only ever runs on the event loop
        # thread, so its attribute reads cannot tear.
        del snapshot
        submitted, flushes = self.submitted, self.flushes
        return {
            "max_batch": self.max_batch,
            "pending": len(self._pending),
            "in_flight": len(self._in_flight),
            "submitted": submitted,
            "coalesced": self.coalesced,
            "flushes": flushes,
            "flushes_by_reason": {
                reason: self.flushes_by(reason)
                for reason in ("idle", "busy", "size", "drain")
            },
            "largest_batch": self.largest_batch,
            "mean_batch": (
                round((submitted - len(self._pending)) / flushes, 2)
                if flushes
                else 0.0
            ),
        }

    def __repr__(self):
        return (
            f"Coalescer(max_batch={self.max_batch}, flushes={self.flushes})"
        )
