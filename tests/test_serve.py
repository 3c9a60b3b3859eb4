"""Tests for the serving layer: cache, admission, coalescer, server.

The unit pieces (TTL cache, admission controller, coalescer) are
exercised in isolation with fake clocks and spy executors; the server
tests run a real :class:`SummaryServer` on an ephemeral localhost port
and talk to it through the synchronous :class:`ServeClient` — the same
path production clients use.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import Backend, Explorer, SummaryBuilder, SummaryStore
from repro.baselines.exact import ExactBackend
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import ReproError, StatisticError
from repro.serve import (
    AdmissionController,
    Coalescer,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerBusy,
    ServerSaturated,
    ServerThread,
    SummaryServer,
    TTLCache,
    TransportError,
    run_load,
    wire,
)
from repro.serve.client import backoff_delay
from repro.serve.loadgen import default_workload
from repro.stats.statistic import Statistic


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

def _wait_until(condition, timeout: float = 5.0, step: float = 0.005) -> bool:
    """Poll ``condition`` until true or ``timeout`` elapses.

    The de-flaking primitive for the timing tests below: asserting on a
    *condition with a generous deadline* instead of sleeping a fixed
    interval and hoping the scheduler cooperated.  Returns whether the
    condition held in time (callers assert on it for a clear failure).
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(step)
    return condition()


def _relation(rows: int = 300, seed: int = 3) -> Relation:
    schema = Schema(
        [Domain("state", ["CA", "NY", "WA"]), integer_domain("hour", 4)]
    )
    rng = np.random.default_rng(seed)
    return Relation(
        schema,
        [rng.choice(3, size=rows, p=[0.5, 0.3, 0.2]), rng.integers(0, 4, rows)],
    )


@pytest.fixture(scope="module")
def relation():
    return _relation()


@pytest.fixture(scope="module")
def summary(relation):
    return (
        SummaryBuilder(relation)
        .pairs(("state", "hour"))
        .per_pair_budget(4)
        .iterations(50)
        .name("serve-test")
        .fit()
    )


class SpyBackend(Backend):
    """Exact answers, call counting, an optional artificial delay, and
    an optional ``gate``: every call blocks until the event is set, so
    a test can hold an execution in flight for as long as it needs."""

    is_exact = True

    def __init__(self, relation, delay: float = 0.0, gate=None):
        self.inner = ExactBackend(relation)
        self.schema = relation.schema
        self.name = "spy"
        self.delay = delay
        self.gate = gate
        self.calls = 0
        self._lock = threading.Lock()

    def _tick(self):
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(timeout=10), "held execution never released"
        if self.delay:
            time.sleep(self.delay)

    def count(self, predicate):
        self._tick()
        return self.inner.count(predicate)

    def group_counts(self, attrs, predicate):
        self._tick()
        return self.inner.group_counts(attrs, predicate)


# ----------------------------------------------------------------------
# TTLCache
# ----------------------------------------------------------------------

class TestTTLCache:
    def test_put_get_and_counters(self):
        cache = TTLCache(maxsize=4, ttl=None)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = TTLCache(maxsize=2, ttl=None)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.evictions == 1

    def test_ttl_expiry_with_fake_clock(self):
        now = [100.0]
        cache = TTLCache(maxsize=8, ttl=5.0, clock=lambda: now[0])
        cache.put("k", "v")
        assert cache.get("k") == "v"
        now[0] += 4.99
        assert cache.get("k") == "v"
        now[0] += 0.02
        assert cache.get("k") is None
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_disabled(self):
        cache = TTLCache(maxsize=0)
        cache.put("k", "v")
        assert cache.get("k") is None

    def test_stats_shape(self):
        stats = TTLCache(maxsize=3, ttl=9.0).stats()
        assert stats["maxsize"] == 3
        assert stats["ttl"] == 9.0
        assert set(stats) >= {"hits", "misses", "evictions", "expirations"}

    def test_stats_snapshot_consistent_under_concurrent_mutation(self):
        # Regression for a torn read: hit_rate and stats() used to read
        # hits/misses outside the lock, so a snapshot taken mid-lookup
        # could pair a new hits value with an old misses value (rates
        # above 1.0, hits+misses short of the lookup count).
        cache = TTLCache(maxsize=16, ttl=None)
        stop = threading.Event()
        lookups_done = []

        def mutate():
            count = 0
            while not stop.is_set():
                cache.put(count % 32, count)
                cache.get((count * 7) % 32)
                count += 1
            lookups_done.append(count)

        threads = [threading.Thread(target=mutate) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(300):
                stats = cache.stats()
                assert 0.0 <= stats["hit_rate"] <= 1.0
                assert 0.0 <= cache.hit_rate <= 1.0
                assert stats["size"] <= cache.maxsize
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        final = cache.stats()
        # Quiesced: the snapshot must account for every lookup exactly.
        assert final["hits"] + final["misses"] == sum(lookups_done)


# ----------------------------------------------------------------------
# AdmissionController
# ----------------------------------------------------------------------

class TestAdmission:
    def test_acquire_release_depth(self):
        admission = AdmissionController(max_queue=2, max_inflight_per_client=2)
        admission.acquire("a")
        admission.acquire("b")
        assert admission.depth == 2
        admission.release("a")
        assert admission.depth == 1
        admission.release("b")
        assert admission.depth == 0
        assert admission.peak_depth == 2

    def test_queue_rejection_carries_retry_after(self):
        admission = AdmissionController(
            max_queue=1, max_inflight_per_client=5, retry_floor=0.01
        )
        admission.acquire("a")
        with pytest.raises(ServerSaturated) as caught:
            admission.acquire("b")
        assert caught.value.scope == "queue"
        assert caught.value.retry_after >= 0.01
        assert admission.rejected_queue == 1
        admission.release("a")
        admission.acquire("b")  # capacity is back

    def test_slow_backend_raises_the_hint(self):
        """The hint is backlog × observed service time: the same backlog
        behind a 0.2 s backend must be told to wait far longer than
        behind a 1 ms one."""

        def hint(service_s):
            admission = AdmissionController(
                max_queue=4, max_inflight_per_client=8
            )
            for _ in range(20):
                admission.observe(service_s)
            for client in "abcd":
                admission.acquire(client)
            with pytest.raises(ServerSaturated) as caught:
                admission.acquire("e")
            return caught.value.retry_after

        fast, slow = hint(0.001), hint(0.2)
        assert fast == pytest.approx(4 * AdmissionController().retry_floor)
        assert slow > 50 * fast
        assert slow == pytest.approx(4 * 0.2, rel=0.05)

    def test_per_client_limit_is_fair(self):
        admission = AdmissionController(max_queue=10, max_inflight_per_client=1)
        admission.acquire("greedy")
        with pytest.raises(ServerSaturated) as caught:
            admission.acquire("greedy")
        assert caught.value.scope == "client"
        # Other clients keep being admitted.
        admission.acquire("polite")
        assert admission.rejected_client == 1

    def test_held_context_manager(self):
        admission = AdmissionController(max_queue=1, max_inflight_per_client=1)
        with admission.held("a"):
            assert admission.depth == 1
        assert admission.depth == 0

    def test_validation(self):
        with pytest.raises(ReproError, match="max_queue"):
            AdmissionController(max_queue=0)
        with pytest.raises(ReproError, match="max_inflight_per_client"):
            AdmissionController(max_inflight_per_client=0)


# ----------------------------------------------------------------------
# Coalescer
# ----------------------------------------------------------------------

async def _turns(count: int = 5) -> None:
    """Let the event loop run ``count`` turns — no clock involved."""
    for _ in range(count):
        await asyncio.sleep(0)


class _HeldBatch:
    """A ``run_batch`` spy that records each batch and blocks until
    ``release`` is set: an execution held in flight, for as long as a
    test needs, with no timer anywhere."""

    def __init__(self, error: BaseException | None = None):
        self.batches: list[list] = []
        self.release = asyncio.Event()
        self.error = error

    async def __call__(self, items):
        self.batches.append(list(items))
        await self.release.wait()
        if self.error is not None:
            raise self.error
        return [item * 2 for item in items]


class TestCoalescer:
    """Single-flight: a submission runs its new keys itself, at once;
    a key already in flight is joined, never executed twice."""

    def test_idle_submission_flushes_alone(self):
        async def scenario():
            spy = _HeldBatch()
            coalescer = Coalescer(spy)
            task = asyncio.create_task(coalescer.submit("a", 1))
            await _turns(1)  # the submitting task's first turn runs it
            in_flight = (list(spy.batches), coalescer.stats()["in_flight"])
            spy.release.set()
            return coalescer, in_flight, await task

        coalescer, in_flight, result = asyncio.run(scenario())
        assert in_flight == ([[1]], 1)
        assert result == 2
        assert coalescer.flushes == 1
        assert coalescer.stats()["in_flight"] == 0

    def test_same_key_requests_share_one_execution(self):
        async def scenario():
            spy = _HeldBatch()
            coalescer = Coalescer(spy)
            tasks = [
                asyncio.create_task(coalescer.submit("hot", 21))
                for _ in range(5)
            ]
            await _turns()
            spy.release.set()
            return coalescer, spy, await asyncio.gather(*tasks)

        coalescer, spy, results = asyncio.run(scenario())
        assert results == [42] * 5
        assert spy.batches == [[21]]  # deduped: one item executed
        assert coalescer.coalesced == 4
        assert coalescer.submitted == 5
        assert coalescer.flushes == 1

    def test_same_key_joins_the_flush_in_flight(self):
        async def scenario():
            spy = _HeldBatch()
            coalescer = Coalescer(spy)
            first = asyncio.create_task(coalescer.submit("hot", 21))
            await _turns()
            joiner = asyncio.create_task(coalescer.submit("hot", 21))
            await _turns()
            held = list(spy.batches)
            spy.release.set()
            results = await asyncio.gather(first, joiner)
            # Resolved: the key left the in-flight table, so the next
            # submission is a fresh execution.
            again = await coalescer.submit("hot", 21)
            return coalescer, spy, held, results, again

        coalescer, spy, held, results, again = asyncio.run(scenario())
        assert held == [[21]]  # the joiner started nothing
        assert results == [42, 42]
        assert coalescer.coalesced == 1
        assert again == 42
        assert spy.batches == [[21], [21]]
        assert coalescer.flushes == 2
        assert coalescer.stats()["in_flight"] == 0

    def test_batch_runs_only_its_new_keys(self):
        async def scenario():
            spy = _HeldBatch()
            coalescer = Coalescer(spy)
            first = asyncio.create_task(coalescer.submit("a", 1))
            await _turns()
            batch = asyncio.create_task(
                coalescer.submit_many(
                    [("a", 1), ("b", 2), ("b", 2), ("c", 3)]
                )
            )
            await _turns()
            held = list(spy.batches)
            spy.release.set()
            return coalescer, held, await first, await batch

        coalescer, held, first, batch = asyncio.run(scenario())
        # One run for the batch's new keys only: "a" was in flight and
        # the second "b" repeats the first.
        assert held == [[1], [2, 3]]
        assert first == 2
        assert batch == [2, 4, 4, 6]
        assert coalescer.submitted == 5
        assert coalescer.coalesced == 2
        assert coalescer.flushes == 2

    def test_per_item_exceptions_do_not_poison_the_flush(self):
        bad = ValueError("bad item")

        async def run_batch(items):
            await release.wait()
            return [bad if item == "bad" else item for item in items]

        async def scenario():
            coalescer = Coalescer(run_batch)
            leader = asyncio.create_task(
                coalescer.submit_many([("g", "fine"), ("b", "bad")])
            )
            await _turns()
            joiners = [
                asyncio.create_task(coalescer.submit(key, item))
                for key, item in (("g", "fine"), ("b", "bad"))
            ]
            await _turns()
            release.set()
            outcomes = await leader
            joined = await asyncio.gather(*joiners, return_exceptions=True)
            return coalescer, outcomes, joined

        release = asyncio.Event()
        coalescer, outcomes, joined = asyncio.run(scenario())
        assert outcomes == ["fine", bad]
        assert joined == ["fine", bad]  # only the bad key's waiters fail
        assert coalescer.flushes == 1
        assert coalescer.stats()["in_flight"] == 0

    def test_run_batch_failure_fails_all_waiters(self):
        async def scenario():
            spy = _HeldBatch(error=RuntimeError("executor died"))
            coalescer = Coalescer(spy)
            waiters = [
                asyncio.create_task(coalescer.submit_many([("a", 1), ("b", 2)]))
            ]
            await _turns()
            waiters.append(asyncio.create_task(coalescer.submit("a", 1)))
            await _turns()
            spy.release.set()
            results = await asyncio.gather(*waiters, return_exceptions=True)
            return coalescer, results

        coalescer, (leader, joiner) = asyncio.run(scenario())
        assert all(isinstance(result, RuntimeError) for result in leader)
        assert isinstance(joiner, RuntimeError)
        assert coalescer.coalesced == 1  # the joiner failed with them
        assert coalescer.stats()["in_flight"] == 0

    def test_leader_cancellation_fails_its_joiners(self):
        async def scenario():
            spy = _HeldBatch()
            coalescer = Coalescer(spy)
            leader = asyncio.create_task(coalescer.submit("a", 1))
            await _turns()
            joiner = asyncio.create_task(coalescer.submit("a", 1))
            await _turns()
            leader.cancel()
            spy.release.set()  # too late: the leader is already cancelled
            results = await asyncio.gather(
                leader, joiner, return_exceptions=True
            )
            # The table is empty again: the key runs afresh.
            again = await coalescer.submit("a", 1)
            return coalescer, results, again

        coalescer, results, again = asyncio.run(scenario())
        assert all(isinstance(r, asyncio.CancelledError) for r in results)
        assert again == 2
        assert coalescer.stats()["in_flight"] == 0

    def test_close_answers_every_waiter_then_rejects(self):
        async def scenario():
            spy = _HeldBatch()
            coalescer = Coalescer(spy)
            waiters = [
                asyncio.create_task(coalescer.submit_many([("a", 1), ("b", 2)]))
            ]
            await _turns()
            waiters.append(asyncio.create_task(coalescer.submit("a", 1)))
            await _turns()
            closing = asyncio.create_task(coalescer.close())
            await _turns()
            held = closing.done()
            with pytest.raises(ReproError, match="closed"):
                await coalescer.submit("c", 3)
            spy.release.set()
            await closing
            with pytest.raises(ReproError, match="closed"):
                await coalescer.submit("a", 1)
            return held, [await waiter for waiter in waiters]

        held, results = asyncio.run(scenario())
        assert held is False  # close waits for the held execution
        assert results == [[2, 4], 2]


# ----------------------------------------------------------------------
# Server round-trips over a real socket
# ----------------------------------------------------------------------

class TestServerRoundTrip:
    @pytest.fixture(scope="class")
    def running(self, summary):
        server = SummaryServer(
            summary, config=ServeConfig(cache_ttl=None)
        )
        with ServerThread(server) as running:
            yield running

    def test_ping(self, running):
        with ServeClient(port=running.port) as client:
            assert client.ping() == {"version": 0}

    def test_scalar_query_with_error_bounds(self, running, summary):
        expected = Explorer.attach(summary).sql(
            "SELECT COUNT(*) FROM R WHERE state = 'CA'"
        )
        with ServeClient(port=running.port) as client:
            payload = client.query("SELECT COUNT(*) FROM R WHERE state = 'CA'")
        assert payload["kind"] == "scalar"
        assert payload["value"] == pytest.approx(expected.scalar)
        assert payload["std"] == pytest.approx(expected.std)
        assert payload["ci95"] == pytest.approx(list(expected.ci95))

    def test_grouped_query(self, running, summary):
        expected = Explorer.attach(summary).sql(
            "SELECT COUNT(*) FROM R GROUP BY state"
        )
        with ServeClient(port=running.port) as client:
            payload = client.query("SELECT COUNT(*) FROM R GROUP BY state")
        assert payload["kind"] == "rows"
        assert payload["group_by"] == ["state"]
        assert payload["rows"] == [
            [row.labels[0], pytest.approx(row.count)] for row in expected.rows
        ]

    def test_syntactic_variants_share_the_cache(self, running):
        with ServeClient(port=running.port) as client:
            first = client.call(
                "query", sql="SELECT COUNT(*) FROM R WHERE hour BETWEEN 1 AND 2"
            )
            second = client.call(
                "query",
                sql="SELECT COUNT(*) FROM R WHERE hour >= 1 AND hour <= 2",
            )
        assert second["result"]["value"] == first["result"]["value"]
        # The canonical key collapses the two spellings server-side.
        assert second["cached"] is True

    def test_named_sessions(self, running):
        with ServeClient(port=running.port, session="analyst-7") as client:
            reply = client.call(
                "query", sql="SELECT COUNT(*) FROM R", session="analyst-7"
            )
            batch = client.call(
                "query_batch", sqls=["SELECT COUNT(*) FROM R"],
                session="analyst-7",
            )
            stats = client.stats()
        assert reply["session"] == "analyst-7"
        assert batch["session"] == "analyst-7"
        assert "sessions" not in stats

    def test_session_names_grow_no_server_state(self, running):
        # A session is a label echoed in the reply: 500 client-chosen
        # names leave the number of live Explorers where it was.
        import gc

        def live_explorers() -> int:
            gc.collect()
            return sum(isinstance(obj, Explorer) for obj in gc.get_objects())

        sql = "SELECT COUNT(*) FROM R WHERE hour = 1"
        with ServeClient(port=running.port) as client:
            client.query(sql, session="warm-up")
            before = live_explorers()
            for index in range(500):
                reply = client.call("query", sql=sql, session=f"user-{index}")
                assert reply["session"] == f"user-{index}"
            after = live_explorers()
        assert after == before

    def test_bad_sql_is_a_400_not_a_dropped_connection(self, running):
        with ServeClient(port=running.port) as client:
            with pytest.raises(ServeError) as caught:
                client.query("SELECT COUNT(*) FROM nowhere")
            assert caught.value.status == 400
            # The connection survives the error.
            assert client.ping() == {"version": 0}

    def test_unknown_op_rejected(self, running):
        with ServeClient(port=running.port) as client:
            with pytest.raises(ServeError, match="unknown op"):
                client.call("frobnicate")

    def test_invalid_json_line(self, running):
        with socket.create_connection(("127.0.0.1", running.port), 5) as raw:
            raw.sendall(b"this is not json\n")
            response = json.loads(raw.makefile("rb").readline())
        assert response["ok"] is False
        assert response["status"] == 400
        assert response["id"] is None

    def test_reload_without_store_is_a_clean_error(self, running):
        with ServeClient(port=running.port) as client:
            with pytest.raises(ServeError, match="store"):
                client.reload()

    def test_stats_shape(self, running):
        with ServeClient(port=running.port) as client:
            stats = client.stats()
        assert stats["version"] == 0
        assert set(stats) >= {
            "cache", "admission", "coalescer", "requests", "errors", "reloads",
        }
        # bench_e2e's ledger reads these three keys.
        assert set(stats["coalescer"]) >= {"submitted", "coalesced", "flushes"}


def _record_execution_threads(server) -> list:
    """Wrap ``server._execute_items`` to note, per execution, whether it
    ran on the thread that runs the server's event loop (an executor
    thread runs no loop)."""
    on_loop: list[bool] = []
    execute = server._execute_items

    def recorded(items):
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            on_loop.append(False)
        else:
            on_loop.append(True)
        return execute(items)

    server._execute_items = recorded
    return on_loop


class TestWhereExecutionsRun:
    """One rule, pinned: an execution that is one polynomial pass per
    plan runs on the event loop; one that scans rows or loops over
    outer GROUP BY values takes the executor hop."""

    ONE_PASS = [
        "SELECT COUNT(*) FROM R WHERE state = 'CA'",
        "SELECT SUM(hour) FROM R WHERE state = 'WA'",
        "SELECT AVG(hour) FROM R WHERE state IN ('CA', 'NY')",
        "SELECT state, COUNT(*) FROM R GROUP BY state",
        "SELECT COUNT(*) FROM R WHERE state = 'CA' AND state = 'NY'",
    ]
    TWO_ATTRIBUTES = "SELECT state, hour, COUNT(*) FROM R GROUP BY state, hour"

    @staticmethod
    def _executions(backend, sqls) -> list:
        server = SummaryServer(backend, config=ServeConfig(cache_size=0))
        on_loop = _record_execution_threads(server)
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                for sql in sqls:
                    client.query(sql)
        assert len(on_loop) == len(sqls)
        return on_loop

    @pytest.fixture(scope="class")
    def sharded(self, relation):
        return (
            SummaryBuilder(relation)
            .shards(2, by="hour", workers=1)
            .pairs(("state", "hour"))
            .per_pair_budget(4)
            .iterations(50)
            .fit()
        )

    def test_one_pass_plans_run_on_the_loop(self, summary, sharded):
        for model in (summary, sharded):
            assert self._executions(model, self.ONE_PASS) == [True] * 5

    def test_two_attribute_group_by_takes_the_executor(self, summary, sharded):
        for model in (summary, sharded):
            assert self._executions(model, [self.TWO_ATTRIBUTES]) == [False]

    def test_exact_backend_takes_the_executor(self, relation):
        # The last ONE_PASS statement is a contradiction: routed "none"
        # on every backend, it computes nothing and stays on the loop.
        on_loop = self._executions(
            ExactBackend(relation), [*self.ONE_PASS, self.TWO_ATTRIBUTES]
        )
        assert on_loop == [False] * 4 + [True, False]

    def test_a_batch_with_one_multi_attribute_plan_takes_the_executor(
        self, summary
    ):
        server = SummaryServer(summary, config=ServeConfig(cache_size=0))
        on_loop = _record_execution_threads(server)
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                client.query_many(self.ONE_PASS)
                client.query_many([*self.ONE_PASS, self.TWO_ATTRIBUTES])
        assert on_loop == [True, False]


class TestCoalescedServing:
    """Single-flight over the wire, forced by holding the backend
    instead of by a timer: the first request's execution blocks in the
    spy until every request the test sends has joined it."""

    @staticmethod
    def _ask_concurrently(server, queries):
        errors, values = [], []

        def ask(sql):
            try:
                with ServeClient(port=server.port) as client:
                    values.append(client.count(sql))
            except BaseException as error:
                errors.append(error)

        threads = [threading.Thread(target=ask, args=(sql,)) for sql in queries]
        for thread in threads:
            thread.start()
        return threads, errors, values

    def test_same_key_concurrent_clients_cost_one_execution(self, relation):
        """The headline behavior: N clients asking one question while
        its execution is in flight -> one backend execution (spy count)."""
        gate = threading.Event()
        backend = SpyBackend(relation, gate=gate)
        # Cache off so single-flight (not the cache) must do the dedup.
        server = SummaryServer(backend, config=ServeConfig(cache_size=0))
        clients = 6
        with ServerThread(server):
            threads, errors, values = self._ask_concurrently(
                server, ["SELECT COUNT(*) FROM R WHERE state = 'CA'"] * clients
            )
            try:
                assert _wait_until(
                    lambda: server.coalescer.submitted == clients
                )
            finally:
                gate.set()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert len(set(values)) == 1
        assert backend.calls == 1
        assert server.coalescer.coalesced == clients - 1
        assert server.coalescer.flushes == 1


class TestAdmissionOverTheWire:
    def test_saturated_queue_rejects_with_retry_after(self, relation):
        backend = SpyBackend(relation, delay=0.3)
        server = SummaryServer(
            backend,
            config=ServeConfig(
                cache_size=0,
                max_queue=1,
                max_inflight_per_client=5,
            ),
        )
        with ServerThread(server):
            with socket.create_connection(
                ("127.0.0.1", server.port), 5
            ) as occupier:
                occupier.sendall(
                    b'{"id": 1, "op": "query", '
                    b'"sql": "SELECT COUNT(*) FROM R"}\n'
                )
                deadline = time.monotonic() + 2.0
                while (
                    server.admission.depth == 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
                assert server.admission.depth == 1
                with ServeClient(port=server.port) as other:
                    with pytest.raises(ServerBusy) as caught:
                        other.query("SELECT COUNT(*) FROM R WHERE hour = 1")
                assert caught.value.retry_after > 0
                assert caught.value.payload["scope"] == "queue"
                # The occupier still gets its (slow) answer.
                response = json.loads(occupier.makefile("rb").readline())
                assert response["ok"] is True

    def test_per_client_pipelining_limit(self, relation):
        backend = SpyBackend(relation, delay=0.3)
        server = SummaryServer(
            backend,
            config=ServeConfig(
                cache_size=0,
                max_queue=10,
                max_inflight_per_client=1,
            ),
        )
        with ServerThread(server):
            with socket.create_connection(
                ("127.0.0.1", server.port), 5
            ) as raw:
                raw.sendall(
                    b'{"id": 1, "op": "query", '
                    b'"sql": "SELECT COUNT(*) FROM R"}\n'
                    b'{"id": 2, "op": "query", '
                    b'"sql": "SELECT COUNT(*) FROM R WHERE hour = 1"}\n'
                )
                reader = raw.makefile("rb")
                responses = [
                    json.loads(reader.readline()) for _ in range(2)
                ]
        rejected = [r for r in responses if not r["ok"]]
        accepted = [r for r in responses if r["ok"]]
        assert len(rejected) == 1 and len(accepted) == 1
        assert rejected[0]["status"] == 503
        assert rejected[0]["scope"] == "client"
        assert rejected[0]["retry_after"] > 0

    def test_client_retries_on_retry_after_and_succeeds(self, relation):
        backend = SpyBackend(relation, delay=0.1)
        server = SummaryServer(
            backend,
            config=ServeConfig(cache_size=0, max_queue=1),
        )
        errors = []

        def hammer(index):
            try:
                with ServeClient(port=server.port) as client:
                    client.query(
                        f"SELECT COUNT(*) FROM R WHERE hour = {index % 4}",
                        retries=50,
                    )
            except BaseException as error:
                errors.append(error)

        with ServerThread(server):
            threads = [
                threading.Thread(target=hammer, args=(index,))
                for index in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors, errors[0]
        # With max_queue=1 and 4 concurrent clients, someone had to be
        # turned away at least once — and everyone still finished.
        assert server.admission.rejected_queue > 0

    def test_pipelined_loop_executions_meet_the_client_bound(self, summary):
        """Summary-routed executions run on the event loop, each done
        before the next request starts; admission is taken as each frame
        is read, so a 40-deep pipeline still meets max_inflight."""
        server = SummaryServer(
            summary,
            config=ServeConfig(cache_size=0, max_inflight_per_client=4),
        )
        queries = 40
        frames = b"".join(
            json.dumps(
                {
                    "id": index,
                    "op": "query",
                    "sql": f"SELECT COUNT(*) FROM R WHERE hour = {index % 4}",
                }
            ).encode() + b"\n"
            for index in range(queries)
        )
        with ServerThread(server):
            with socket.create_connection(
                ("127.0.0.1", server.port), 5
            ) as raw:
                raw.sendall(frames)  # one write: the whole pipeline
                reader = raw.makefile("rb")
                responses = [
                    json.loads(reader.readline()) for _ in range(queries)
                ]
        assert sorted(r["id"] for r in responses) == list(range(queries))
        rejected = [r for r in responses if not r["ok"]]
        accepted = [r for r in responses if r["ok"]]
        assert rejected
        for response in rejected:
            assert response["status"] == 503
            assert response["scope"] == "client"
            assert response["retry_after"] > 0
        assert all(r["result"]["kind"] == "scalar" for r in accepted)
        assert server.admission.rejected_client == len(rejected)
        assert server.admission.depth == 0


class TestClientBackoff:
    """The retry loop's two fixes: jitter (no lockstep stampedes) and a
    total deadline (no unbounded retry hostage-taking)."""

    @staticmethod
    def _retry_delays(monkeypatch, seed, rejections=6, **query_kwargs):
        """Drive one client's retry loop against a stubbed server that
        rejects ``rejections`` times, recording every backoff sleep."""
        client = ServeClient(port=1, backoff_seed=seed)
        calls = [0]

        def fake_call(op, **fields):
            calls[0] += 1
            if calls[0] <= rejections:
                raise ServerBusy(
                    "stub saturated", retry_after=0.05, payload={}
                )
            return {"result": {"kind": "scalar", "value": 1.0}}

        monkeypatch.setattr(client, "call", fake_call)
        sleeps: list[float] = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", lambda s: sleeps.append(s)
        )
        query_kwargs.setdefault("retries", rejections)
        client.query("SELECT COUNT(*) FROM R", **query_kwargs)
        return sleeps

    def test_jitter_bounds_around_the_hint(self):
        rng = random.Random(0)
        for attempt in range(6):
            delay = backoff_delay(attempt, 0.1, rng)
            assert 0.05 <= delay <= 0.15  # hint +/- 50%

    def test_exponential_floor_with_tiny_hint(self):
        # A hint that undershoots the true service time must not let
        # the client spin: the floor grows 1.6x per attempt.
        rng = random.Random(0)
        for attempt in range(12):
            assert backoff_delay(attempt, 0.0, rng) >= 0.5 * 0.001 * (
                1.6 ** attempt
            )

    def test_lockstep_reproduced_and_broken_by_jitter(self, monkeypatch):
        # The lockstep case: two clients with the SAME jitter stream
        # sleep byte-identical schedules — rejected together, they come
        # back together, forever (the thundering herd).  Distinct
        # streams (distinct seeds, the default from system entropy)
        # spread the herd.
        same_a = self._retry_delays(monkeypatch, seed=7)
        same_b = self._retry_delays(monkeypatch, seed=7)
        other = self._retry_delays(monkeypatch, seed=8)
        assert same_a == same_b  # reproducible, hence: lockstep
        assert same_a != other  # jitter desynchronizes real clients
        assert len(same_a) == 6
        # Every sleep honors the Retry-After hint's jitter band.
        assert all(0.025 <= delay for delay in same_a)

    def test_deadline_bounds_total_retry_time(self, monkeypatch):
        # A saturated server advertising a huge Retry-After cannot hold
        # the client hostage for retries x hint: the deadline raises
        # the last ServerBusy instead of sleeping past it.
        client = ServeClient(port=1, backoff_seed=3)

        def always_busy(op, **fields):
            raise ServerBusy("stub saturated", retry_after=5.0, payload={})

        monkeypatch.setattr(client, "call", always_busy)
        sleeps: list[float] = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", lambda s: sleeps.append(s)
        )
        began = time.monotonic()
        with pytest.raises(ServerBusy):
            client.query("SELECT COUNT(*) FROM R", retries=50, deadline_s=0.2)
        assert time.monotonic() - began < 2.0
        assert sum(sleeps) <= 0.2  # never slept past the budget

    def test_retries_zero_raises_the_first_busy(self, monkeypatch):
        client = ServeClient(port=1)

        def busy_once(op, **fields):
            raise ServerBusy("stub saturated", retry_after=0.01, payload={})

        monkeypatch.setattr(client, "call", busy_once)
        sleeps: list[float] = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", lambda s: sleeps.append(s)
        )
        with pytest.raises(ServerBusy):
            client.query("SELECT COUNT(*) FROM R")
        assert sleeps == []  # no retry budget, no sleeping


class _ScriptedServer:
    """A raw-socket ``ping`` server whose n-th connection follows the
    n-th script: ``"drop"`` closes without answering (binary: after half
    a frame header), ``"stall"`` answers a frame header and never the
    body, ``"serve"`` answers every ping (later connections too)."""

    REPLY = {"ok": True, "status": 200, "result": "pong", "version": 7}

    def __init__(self, *scripts: str):
        self._scripts = list(scripts)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self.connections = 0
        self._release = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._release.set()
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the accept()
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()

    def _main(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            script = self._scripts.pop(0) if self._scripts else "serve"
            self.connections += 1
            threading.Thread(
                target=self._connection, args=(conn, script), daemon=True
            ).start()

    def _connection(self, conn, script: str) -> None:
        with conn, conn.makefile("rb") as reader:
            while True:
                first = reader.peek(1)[:1]
                if not first:
                    return
                if first == wire.MAGIC[:1]:
                    header = reader.read(wire.HEADER_SIZE)
                    _, length, request_id = wire.decode_header(header)
                    reader.read(length)
                    frame = wire.encode_frame(wire.OP_REPLY, request_id, self.REPLY)
                    if script == "drop":
                        frame = frame[: wire.HEADER_SIZE // 2]
                    elif script == "stall":
                        frame = frame[: wire.HEADER_SIZE]
                else:
                    request = json.loads(reader.readline())
                    frame = json.dumps({**self.REPLY, "id": request["id"]}).encode()
                    if script == "drop":
                        frame = b""
                    elif script == "serve":
                        frame += b"\n"
                conn.sendall(frame)
                if script == "drop":
                    return
                if script == "stall":
                    self._release.wait(10)
                    return


class TestClientReconnects:
    """A transport failure closes the socket, so the client's next call
    reconnects; an ``ok: false`` *answer* keeps the connection."""

    @pytest.mark.parametrize("protocol", ["binary", "json"])
    def test_a_dropped_connection_costs_one_call(self, protocol):
        server = _ScriptedServer("drop")
        client = ServeClient(port=server.port, protocol=protocol)
        try:
            with pytest.raises(TransportError):
                client.ping()
            assert client._sock is None
            for _ in range(3):
                assert client.ping() == {"version": 7}
            assert server.connections == 2  # one reconnect, then kept
        finally:
            client.close()
            server.close()

    @pytest.mark.parametrize("protocol", ["binary", "json"])
    def test_a_timeout_mid_reply_does_not_leave_the_stream_unaligned(
        self, protocol
    ):
        """Header (binary) or half a line (JSON) arrives, the rest never
        does: the timeout closes the socket instead of leaving the next
        call to read the tail of this reply."""
        server = _ScriptedServer("stall")
        client = ServeClient(port=server.port, protocol=protocol, timeout=0.2)
        try:
            with pytest.raises(TransportError, match="timed out"):
                client.ping()
            assert client._sock is None
            assert client.ping() == {"version": 7}
        finally:
            client.close()
            server.close()

    @pytest.mark.parametrize("protocol", ["binary", "json"])
    def test_an_answered_error_keeps_the_connection(self, summary, protocol):
        server = SummaryServer(summary)
        with ServerThread(server):
            with ServeClient(port=server.port, protocol=protocol) as client:
                sock = client._sock
                with pytest.raises(ServeError) as caught:
                    client.call("no-such-op")
                assert not isinstance(caught.value, TransportError)
                assert caught.value.status == 400
                assert client._sock is sock
                assert client.ping() == {"version": 0}

    def test_send_and_receive_are_the_halves_of_call(self, summary):
        """Two clients, both requests written before either reply is
        read — the cluster frontend's scatter/gather in miniature."""
        server = SummaryServer(summary)
        with ServerThread(server):
            with ServeClient(port=server.port) as a, ServeClient(
                port=server.port, protocol="json"
            ) as b:
                sent = [(client, client.send("ping")) for client in (a, b)]
                replies = [client.receive(rid) for client, rid in reversed(sent)]
                assert [reply["result"] for reply in replies] == ["pong", "pong"]
                assert a.call("ping")["ok"]


class TestTTLOverTheWire:
    def test_result_expires_after_ttl(self, summary):
        server = SummaryServer(
            summary, config=ServeConfig(cache_ttl=0.08)
        )
        sql = "SELECT COUNT(*) FROM R WHERE state = 'NY'"
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                first = client.call("query", sql=sql)
                second = client.call("query", sql=sql)
                # Poll until the entry expires server-side instead of
                # sleeping a fixed interval: on a loaded machine a
                # fixed sleep races the TTL clock and flakes.  Expiry
                # is keyed to the *put* time, so repolling cannot keep
                # the entry alive — the first miss is the expiry.
                expired = []

                def saw_expiry():
                    response = client.call("query", sql=sql)
                    if not response["cached"]:
                        expired.append(response)
                    return bool(expired)

                assert _wait_until(saw_expiry, timeout=5.0, step=0.02)
        assert first["cached"] is False
        assert second["cached"] is True
        assert server.cache.expirations >= 1  # TTL expired server-side


# ----------------------------------------------------------------------
# Hot reload
# ----------------------------------------------------------------------

class TestHotReload:
    @pytest.fixture()
    def versioned_store(self, tmp_path):
        store = SummaryStore(tmp_path / "models")

        def build(rows, seed):
            return (
                SummaryBuilder(_relation(rows=rows, seed=seed))
                .pairs(("state", "hour"))
                .per_pair_budget(4)
                .iterations(40)
                .name("demo")
                .fit()
            )

        store.save(build(300, 3), "demo")  # v1: 300 rows
        store.save(build(500, 4), "demo")  # v2: 500 rows
        return store

    def test_reload_switches_versions(self, versioned_store):
        server = SummaryServer(
            store=versioned_store,
            name="demo",
            version=1,
        )
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                assert client.ping() == {"version": 1}
                before = client.count("SELECT COUNT(*) FROM R")
                assert client.reload() == 2
                assert client.ping() == {"version": 2}
                after = client.count("SELECT COUNT(*) FROM R")
        assert before == pytest.approx(300, abs=1)
        assert after == pytest.approx(500, abs=1)
        assert server.reloads == 1

    def test_reload_can_pin_an_older_version(self, versioned_store):
        server = SummaryServer(
            store=versioned_store, name="demo", config=ServeConfig()
        )
        assert server.version == 2  # latest by default
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                assert client.reload(version=1) == 1
                assert client.count("SELECT COUNT(*) FROM R") == pytest.approx(
                    300, abs=1
                )

    def test_reload_onto_a_corrupt_version_keeps_the_old_one(
        self, versioned_store
    ):
        server = SummaryServer(
            store=versioned_store,
            name="demo",
            version=1,
            config=ServeConfig(cache_size=0),
        )
        latest = versioned_store.record("demo")
        npz = (versioned_store.root / latest.prefix).with_suffix(".npz")
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        sql = "SELECT COUNT(*) FROM R WHERE hour = 1"
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                before = client.count(sql)
                with pytest.raises(ReproError, match="v2.npz"):
                    server.reload()
                assert server.version == 1
                assert client.ping() == {"version": 1}
                assert client.count(sql) == before
        assert server.reloads == 0

    @staticmethod
    def _overlap_latest(store) -> str:
        """Tamper with the latest version's document: append a copy of
        its first 2D statistic with another value, which overlaps the
        original over the same attribute pair.  Returns the expected
        error message, naming both statistics."""
        first = store.load("demo").statistic_set.multi_dim[0]
        json_path = (store.root / store.record("demo").prefix).with_suffix(".json")
        document = json.loads(json_path.read_text())
        document["multi_dim"].append(dict(document["multi_dim"][0], value=1.0))
        json_path.write_text(json.dumps(document))
        copy = Statistic(first.predicate, 1.0)
        return f"must be disjoint; {copy!r} overlaps {first!r}"

    def test_store_load_rejects_overlapping_statistics(self, versioned_store):
        message = self._overlap_latest(versioned_store)
        with pytest.raises(StatisticError) as raised:
            versioned_store.load("demo")
        assert message in str(raised.value)

    def test_reload_onto_overlapping_statistics_keeps_the_old_one(
        self, versioned_store
    ):
        server = SummaryServer(
            store=versioned_store,
            name="demo",
            version=1,
            config=ServeConfig(cache_size=0),
        )
        message = self._overlap_latest(versioned_store)
        sql = "SELECT COUNT(*) FROM R WHERE hour = 1"
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                before = client.count(sql)
                with pytest.raises(StatisticError) as raised:
                    server.reload()
                assert message in str(raised.value)
                assert server.version == 1
                assert client.ping() == {"version": 1}
                assert client.count(sql) == before
        assert server.reloads == 0

    def test_reload_does_not_drop_in_flight_requests(self, versioned_store):
        server = SummaryServer(
            store=versioned_store,
            name="demo",
            version=1,
            config=ServeConfig(cache_size=0),
        )
        stop = threading.Event()
        errors = []
        answered = [0]
        answered_lock = threading.Lock()

        def answered_count():
            with answered_lock:
                return answered[0]

        def chatter(index):
            try:
                with ServeClient(port=server.port) as client:
                    step = 0
                    while not stop.is_set():
                        value = client.count(
                            "SELECT COUNT(*) FROM R WHERE "
                            f"hour = {(index + step) % 4}"
                        )
                        assert value >= 0
                        with answered_lock:
                            answered[0] += 1
                        step += 1
            except BaseException as error:
                errors.append(error)

        with ServerThread(server):
            threads = [
                threading.Thread(target=chatter, args=(index,))
                for index in range(4)
            ]
            for thread in threads:
                thread.start()
            # Condition, not a fixed sleep: reload only once traffic is
            # demonstrably in flight, then require fresh answers *after*
            # the reloads before stopping — the assertions this test
            # exists for, stated as observable counts.
            assert _wait_until(lambda: answered_count() >= 8)
            with ServeClient(port=server.port) as admin:
                admin.reload()          # v1 -> v2 under live traffic
                admin.reload(version=1)  # and back
            after_reloads = answered_count()
            assert _wait_until(lambda: answered_count() >= after_reloads + 8)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors, errors[0]
        assert answered_count() > 0
        assert server.reloads == 2


# ----------------------------------------------------------------------
# Watcher error paths: the poll loop must outlive transient trouble
# ----------------------------------------------------------------------

class TestWatcherErrorPaths:
    @staticmethod
    def _build(rows, seed):
        return (
            SummaryBuilder(_relation(rows=rows, seed=seed))
            .pairs(("state", "hour"))
            .per_pair_budget(4)
            .iterations(40)
            .name("demo")
            .fit()
        )

    def _watched_server(self, store):
        return SummaryServer(
            store=store,
            name="demo",
            config=ServeConfig(watch_interval=0.05),
        )

    def test_unreadable_manifest_mid_poll_then_recovery(self, tmp_path):
        store = SummaryStore(tmp_path / "models")
        store.save(self._build(300, 3), "demo")  # v1
        manifest = Path(tmp_path / "models" / "manifest.json")
        server = self._watched_server(store)
        with ServerThread(server):
            assert _wait_until(lambda: server.watcher.checks >= 1)
            original = manifest.read_text()
            manifest.write_text("{this is not json")  # corrupt mid-poll
            assert _wait_until(lambda: server.watcher.errors >= 1)
            # The watcher swallowed the error; the server still serves.
            with ServeClient(port=server.port) as client:
                assert client.ping() == {"version": 1}
            manifest.write_text(original)  # filesystem heals
            store.save(self._build(500, 4), "demo")  # v2
            assert _wait_until(lambda: server.version == 2)
            # The counter increments just *after* the version swap, so
            # wait for it instead of reading it in the same instant.
            assert _wait_until(lambda: server.watcher.reloads >= 1)

    def test_store_dir_deleted_and_recreated(self, tmp_path):
        root = tmp_path / "models"
        store = SummaryStore(root)
        store.save(self._build(300, 3), "demo")  # v1
        server = self._watched_server(store)
        with ServerThread(server):
            shutil.rmtree(root)  # the whole store vanishes mid-flight
            assert _wait_until(lambda: server.watcher.errors >= 1)
            with ServeClient(port=server.port) as client:
                assert client.ping() == {"version": 1}  # still serving
            # The store comes back with fresh history; the watcher
            # resumes as soon as a version beyond its high-water (1)
            # appears.
            revived = SummaryStore(root)
            revived.save(self._build(300, 3), "demo")  # v1 again
            revived.save(self._build(500, 4), "demo")  # v2
            assert _wait_until(lambda: server.version == 2)

    def test_rollback_below_high_water_stays_sticky(self, tmp_path):
        store = SummaryStore(tmp_path / "models")
        store.save(self._build(300, 3), "demo")  # v1
        store.save(self._build(500, 4), "demo")  # v2
        server = self._watched_server(store)  # starts at latest: v2
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                assert client.reload(version=1) == 1  # operator rollback
                # The watcher keeps polling but must NOT flap the server
                # back to v2: the rollback stays sticky until something
                # genuinely newer is published.
                checks_now = server.watcher.checks
                assert _wait_until(
                    lambda: server.watcher.checks >= checks_now + 3
                )
                assert server.version == 1
                assert client.ping() == {"version": 1}
                store.save(self._build(700, 5), "demo")  # v3: newer
                assert _wait_until(lambda: server.version == 3)
                assert client.ping() == {"version": 3}


# ----------------------------------------------------------------------
# ServeConfig validation and the load generator
# ----------------------------------------------------------------------

class TestServeConfig:
    @pytest.mark.parametrize(
        "overrides, flag",
        [
            ({"trace_ring": -1}, "--trace-ring"),
            ({"watch_interval": 0.0}, "--watch"),
            ({"max_queue": 0}, "--max-queue"),
            ({"max_inflight_per_client": 0}, "--max-inflight"),
            ({"cache_size": -1}, "--cache-size"),
            ({"cache_ttl": 0.0}, "--cache-ttl"),
        ],
    )
    def test_validation_names_the_flag(self, overrides, flag):
        from dataclasses import replace

        with pytest.raises(ReproError) as caught:
            replace(ServeConfig(), **overrides).validated()
        assert flag in str(caught.value)

    def test_server_needs_exactly_one_source(self, summary, tmp_path):
        with pytest.raises(ReproError, match="exactly one"):
            SummaryServer()
        with pytest.raises(ReproError, match="--name"):
            SummaryServer(store=tmp_path / "models")


class TestLoadGenerator:
    def test_default_workload_is_parseable(self, summary):
        explorer = Explorer.attach(summary)
        workload = default_workload(summary.schema)
        assert len(workload) >= 5
        for sql in workload:
            explorer.plan(sql)  # raises on anything malformed

    def test_run_load_reports(self, summary):
        server = SummaryServer(summary)
        with ServerThread(server):
            report = run_load(
                server.host,
                server.port,
                default_workload(summary.schema),
                clients=4,
                requests_per_client=20,
            )
        assert report.requests == 80
        assert report.errors == 0
        assert report.qps > 0
        assert report.p95_ms >= report.p50_ms
        assert report.cache_hit_rate > 0  # repeated workload must hit
        metrics = report.to_metrics()
        assert set(metrics) >= {"qps", "p50_ms", "p95_ms", "cache_hit_rate"}
