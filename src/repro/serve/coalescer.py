"""Single-flight evaluation: one execution per key in flight.

The paper's query is one cheap masked pass, so a miss gains nothing by
waiting for company: the request that finds a miss evaluates it
itself, in its own coroutine.  The :class:`Coalescer` only makes sure
that requests carrying the same **key** (the plan's canonical cache
key) while that evaluation is in flight share it instead of starting a
second one — the one case where a miss can be answered for free.

A submission of several entries (a pipelined ``query_batch``'s misses)
runs all its keys that are not in flight through one ``run_batch``
call and joins the ones that are.  The class is asyncio-native and
generic: keys are any hashable, items are opaque.  Counters live in
the shared :class:`~repro.obs.MetricsRegistry`.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Hashable, Sequence

from repro.errors import ReproError
from repro.obs import MetricsRegistry


class Coalescer:
    """Same-key single-flight over an awaited ``run_batch``.

    ``run_batch`` receives the items whose keys were not in flight
    (first submission wins per key) and returns one result per item, in
    order; a result that is an exception instance fails only that key's
    waiters.  It runs in the submitting coroutine.  One that never
    suspends (the server's one-pass executions, computed on the event
    loop) leaves the table before any other submission runs, so nothing
    joins it; joiners share the executions that suspend, such as work
    handed to ``loop.run_in_executor``.
    """

    def __init__(
        self,
        run_batch: Callable[[list], Awaitable[Sequence]],
        *,
        metrics: MetricsRegistry | None = None,
    ):
        self.run_batch = run_batch
        # key -> the future every submission of that key resolves from.
        self._in_flight: dict[Hashable, asyncio.Future] = {}
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
            "repro_coalescer_flushes_total", "run_batch calls (executions)."
        )

    async def submit(self, key: Hashable, item) -> object:
        """The result of ``item`` under ``key``; raises its failure."""
        (result,) = await self.submit_many([(key, item)])
        if isinstance(result, BaseException):
            raise result
        return result

    async def submit_many(self, entries: Sequence[tuple]) -> list:
        """Results of ``(key, item)`` entries, in order, with failures
        as exception instances.  Keys already in flight (or repeated in
        ``entries``) join that execution; the rest run in one
        ``run_batch`` call awaited here."""
        if self._closed:
            raise ReproError("coalescer is closed")
        loop = asyncio.get_running_loop()
        futures, fresh = [], {}
        for key, item in entries:
            future = self._in_flight.get(key)
            if future is None:
                future = self._in_flight[key] = loop.create_future()
                fresh[key] = item
            else:
                self._coalesced.inc()
            futures.append(future)
        self._submitted.inc(len(futures))
        if fresh:
            self._flushes.inc()
            results = None
            try:
                results = await self.run_batch(list(fresh.values()))
            except Exception as error:
                results = [error] * len(fresh)
            finally:
                self._resolve(fresh, results)
        outcomes = []
        for future in futures:
            if not future.done():
                # ``wait``, not ``await future``: a cancelled joiner must
                # not cancel the execution other requests share.
                await asyncio.wait((future,))
            error = future.exception()
            outcomes.append(future.result() if error is None else error)
        return outcomes

    def _resolve(self, fresh: dict, results: Sequence | None) -> None:
        # No await here: a key leaves the table in the same step that
        # answers its waiters, so a later submission either joined this
        # execution or starts a fresh one.  ``results`` is None when the
        # leader was cancelled; its joiners are cancelled with it.
        for index, key in enumerate(fresh):
            future = self._in_flight.pop(key)
            if results is None:
                future.cancel()
            elif isinstance(results[index], BaseException):
                future.set_exception(results[index])
            else:
                future.set_result(results[index])

    async def close(self) -> None:
        """Reject new submissions and wait until every execution in
        flight has answered its waiters."""
        self._closed = True
        if self._in_flight:
            await asyncio.wait(set(self._in_flight.values()))

    # -- introspection ----------------------------------------------------
    @property
    def submitted(self) -> int:
        return int(self._submitted.value)

    @property
    def coalesced(self) -> int:
        return int(self._coalesced.value)

    @property
    def flushes(self) -> int:
        return int(self._flushes.value)

    def stats(self, snapshot: dict | None = None) -> dict:
        # ``snapshot`` is accepted for signature parity with the other
        # components; the coalescer only ever runs on the event loop
        # thread, so its attribute reads cannot tear.
        del snapshot
        return {
            "in_flight": len(self._in_flight),
            "submitted": self.submitted,
            "coalesced": self.coalesced,
            "flushes": self.flushes,
        }

    def __repr__(self):
        return f"Coalescer(in_flight={len(self._in_flight)}, flushes={self.flushes})"
