"""The observability layer: registry, tracing, exposition, slow log.

Unit coverage for ``repro.obs`` plus the serving-layer integration the
PR 9 tentpole promises: trace ids on both wire protocols, the
``metrics`` op round-tripping through the Prometheus text parser, the
one-snapshot ``stats()`` pass, and — the satellite case — N same-key
requests sharing one evaluate span while keeping distinct trace ids,
each joiner with its own queue-wait span.
"""

import json
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import SummaryBuilder
from repro.baselines.exact import ExactBackend
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import ObservabilityError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    SlowQueryLog,
    Trace,
    TraceRing,
    activate,
    current_trace,
    histogram_quantile,
    histogram_stats,
    parse_prometheus,
    render_prometheus,
    render_top,
    sample_value,
    span,
)
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeError,
    ServerBusy,
    ServerThread,
    SummaryServer,
    wire,
)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

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
def summary():
    return (
        SummaryBuilder(_relation())
        .pairs(("state", "hour"))
        .per_pair_budget(4)
        .iterations(50)
        .name("obs-test")
        .fit()
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counter_and_labels(self):
        registry = MetricsRegistry()
        requests = registry.counter("t_requests_total", "Requests.", ("op",))
        requests.labels(op="query").inc()
        requests.labels(op="query").inc(2)
        requests.labels(op="ping").inc()
        assert requests.labels(op="query").value == 3
        assert requests.total() == 4

    def test_unlabelled_family_delegates(self):
        registry = MetricsRegistry()
        hits = registry.counter("t_hits_total")
        hits.inc(5)
        assert hits.value == 5
        depth = registry.gauge("t_depth")
        depth.set(7)
        depth.dec()
        assert depth.value == 6
        depth.set_max(3)  # ratchet never goes down
        assert depth.value == 6

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("t_total", "", ("op",))
        again = registry.counter("t_total", "", ("op",))
        assert first is again

    def test_conflicting_registration_raises(self):
        registry = MetricsRegistry()
        registry.counter("t_total")
        with pytest.raises(ObservabilityError):
            registry.gauge("t_total")
        with pytest.raises(ObservabilityError):
            registry.counter("t_total", "", ("op",))

    def test_invalid_names_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("0bad")
        with pytest.raises(ObservabilityError):
            registry.counter("ok_total", "", ("0bad",))

    def test_wrong_labelset_raises(self):
        registry = MetricsRegistry()
        family = registry.counter("t_total", "", ("op",))
        with pytest.raises(ObservabilityError):
            family.labels(shard="0")
        with pytest.raises(ObservabilityError):
            family.inc()  # labelled family has no default series

    def test_histogram_observe_and_quantile(self):
        registry = MetricsRegistry()
        latency = registry.histogram("t_seconds")
        for value in (0.0001, 0.001, 0.001, 0.002, 5.0):
            latency.observe(value)
        assert latency.count == 5
        assert latency.sum == pytest.approx(5.0041)
        p50 = latency.quantile(0.5)
        assert 0.0005 <= p50 <= 0.0025
        # overflow (beyond the last bucket) clamps to the last bound
        assert latency.quantile(1.0) == DEFAULT_LATENCY_BUCKETS[-1]

    def test_snapshot_shape_and_helpers(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "Things.", ("op",)).labels(op="a").inc(2)
        registry.histogram("t_seconds", "Lat.").observe(0.01)
        snapshot = registry.snapshot()
        assert sample_value(snapshot, "t_total", {"op": "a"}) == 2
        assert sample_value(snapshot, "t_total") == 2  # sums the series
        assert sample_value(snapshot, "absent", default=-1) == -1
        total, count, buckets = histogram_stats(snapshot, "t_seconds")
        assert (total, count) == (pytest.approx(0.01), 1)
        assert buckets[-1][0] == "+Inf" and buckets[-1][1] == 1
        assert histogram_quantile(snapshot, "t_seconds", 0.5) > 0

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.histogram("t_seconds").observe(0.5)
        json.dumps(registry.snapshot())  # must not raise


class TestPrometheusText:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "Count of things.", ("op",)).labels(
            op="query"
        ).inc(3)
        registry.gauge("t_depth", "Depth.").set(2)
        registry.histogram("t_seconds", "Latency.").observe(0.003)
        text = registry.render()
        parsed = parse_prometheus(text)
        assert parsed["types"] == {
            "t_total": "counter",
            "t_depth": "gauge",
            "t_seconds": "histogram",
        }
        assert parsed["helps"]["t_total"] == "Count of things."
        assert parsed["samples"][("t_total", (("op", "query"),))] == 3
        assert parsed["samples"][("t_depth", ())] == 2
        assert parsed["samples"][("t_seconds_count", ())] == 1
        inf_key = ("t_seconds_bucket", (("le", "+Inf"),))
        assert parsed["samples"][inf_key] == 1

    def test_label_escaping_survives(self):
        registry = MetricsRegistry()
        family = registry.counter("t_total", "", ("sql",))
        family.labels(sql='SELECT "x"\nFROM R\\').inc()
        parsed = parse_prometheus(registry.render())
        (key,) = [k for k in parsed["samples"] if k[0] == "t_total"]
        assert key[1] == (("sql", 'SELECT "x"\nFROM R\\'),)

    def test_malformed_text_raises(self):
        with pytest.raises(ObservabilityError):
            parse_prometheus("what even is this line\n")
        with pytest.raises(ObservabilityError):
            parse_prometheus('t_total{op="unterminated} 1\n')

    def test_empty_family_still_declared(self):
        registry = MetricsRegistry()
        registry.counter("t_errors_total", "Errors.", ("op",))  # no children
        parsed = parse_prometheus(registry.render())
        assert parsed["types"]["t_errors_total"] == "counter"


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

class TestTracing:
    def test_trace_spans_in_order(self):
        trace = Trace(op="query", session="s")
        with trace.span("parse"):
            pass
        with trace.span("evaluate", batch=3):
            pass
        assert [entry.name for entry in trace.spans] == ["parse", "evaluate"]
        assert trace.spans[1].meta == {"batch": 3}
        payload = trace.to_dict()
        assert payload["op"] == "query"
        assert len(payload["trace_id"]) == 16
        assert [s["name"] for s in payload["spans"]] == ["parse", "evaluate"]

    def test_ambient_span_records_on_active_trace(self):
        trace = Trace()
        assert current_trace() is None
        with activate(trace):
            assert current_trace() is trace
            with span("route"):
                pass
        assert current_trace() is None
        assert [entry.name for entry in trace.spans] == ["route"]

    def test_span_is_noop_without_trace(self):
        before = Trace()  # unaffected bystander
        with span("parse"):
            pass
        assert before.spans == []

    def test_trace_ids_distinct_and_hint_masked(self):
        a, b = Trace(), Trace()
        assert a.trace_id != b.trace_id
        assert 0 < a.trace_id < 2**63
        assert a.hint == a.trace_id & 0x7FFFFFFF

    def test_adopted_trace_id(self):
        trace = Trace(trace_id=0xFF)
        assert trace.hex_id == "00000000000000ff"

    def test_ring_bounds_and_snapshots(self):
        ring = TraceRing(capacity=3)
        for _ in range(5):
            ring.record(Trace())
        assert len(ring) == 3
        assert len(ring.snapshot()) == 3
        assert TraceRing(capacity=0).traces() == []


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------

class TestSlowQueryLog:
    def test_disabled_without_threshold(self):
        log = SlowQueryLog()
        assert not log.enabled
        assert not log.maybe_record(duration_s=99.0, sql="SELECT 1")
        assert log.entries() == []

    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_ms=10.0)
        assert not log.maybe_record(duration_s=0.005, sql="fast")
        assert log.maybe_record(duration_s=0.02, sql="slow")
        (entry,) = log.entries()
        assert entry["sql"] == "slow"
        assert entry["duration_ms"] == pytest.approx(20.0)

    def test_jsonl_file_and_trace_embedding(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(threshold_ms=0.0, path=str(path))
        trace = Trace(op="query")
        with trace.span("evaluate"):
            pass
        log.maybe_record(
            duration_s=0.5, sql="SELECT 1", trace=trace, explain="plan",
            cached=False,
        )
        (line,) = path.read_text().splitlines()
        entry = json.loads(line)
        assert entry["explain"] == "plan"
        assert entry["cached"] is False
        assert entry["trace"]["spans"][0]["name"] == "evaluate"

    def test_ring_is_bounded(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=4)
        for index in range(10):
            log.maybe_record(duration_s=1.0, sql=f"q{index}")
        assert log.recorded == 10
        assert len(log.entries()) == 4
        assert log.stats()["ring"] == 4


# ----------------------------------------------------------------------
# Binary-header trace hints
# ----------------------------------------------------------------------

class TestTraceHintPacking:
    def test_round_trip(self):
        packed = wire.pack_trace_hint(42, 0x7FFFFFFF)
        assert packed != 42
        assert wire.split_trace_hint(packed) == (42, 0x7FFFFFFF)

    def test_zero_hint_is_identity(self):
        assert wire.pack_trace_hint(42, 0) == 42
        assert wire.split_trace_hint(42) == (42, 0)

    def test_out_of_range_ids_pass_through(self):
        huge = 2**40
        assert wire.pack_trace_hint(huge, 123) == huge
        assert wire.split_trace_hint(-7) == (-7, 0)

    def test_packed_id_fits_signed_i64(self):
        packed = wire.pack_trace_hint(0xFFFFFFFF, 0x7FFFFFFF)
        assert 0 < packed < 2**63


# ----------------------------------------------------------------------
# repro top rendering
# ----------------------------------------------------------------------

class TestRenderTop:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "", ("op",)).labels(
            op="query"
        ).inc(10)
        registry.counter("repro_errors_total", "", ("op",))
        registry.histogram("repro_request_seconds", "", ("op",)).labels(
            op="query"
        ).observe(0.002)
        stage = registry.histogram("repro_stage_seconds", "", ("stage",))
        stage.labels(stage="parse").observe(0.0001)
        stage.labels(stage="evaluate").observe(0.0015)
        return registry.snapshot()

    def test_tables_render(self):
        out = render_top(self._snapshot())
        assert "query" in out
        assert "evaluate" in out
        assert "requests" in out

    def test_cluster_line_splits_the_fan_out(self):
        """On a ``--workers`` frontend: fan-out minus the workers' own
        busy time is routing and wire; absent on a single process."""
        assert "cluster" not in render_top(self._snapshot())
        registry = MetricsRegistry()
        registry.gauge("repro_cluster_workers", "").set(2)
        registry.histogram("repro_cluster_fanout_seconds", "").observe(0.001)
        busy = registry.histogram("repro_cluster_worker_busy_seconds", "")
        busy.observe(0.0002)
        busy.observe(0.0004)
        out = render_top({**self._snapshot(), **registry.snapshot()})
        assert "cluster workers 2" in out
        assert "fan-out mean ms 1.000" in out
        assert "worker busy 0.300" in out
        assert "routing+wire 0.700" in out

    def test_qps_from_delta(self):
        first = self._snapshot()
        second = json.loads(json.dumps(first))
        second["repro_requests_total"]["samples"][0]["value"] += 20
        out = render_top(second, previous=first, interval_s=2.0)
        assert "10.0" in out  # 20 requests / 2 s


# ----------------------------------------------------------------------
# Client exception attributes + retry metrics (satellite b)
# ----------------------------------------------------------------------

class TestClientObservability:
    def test_serve_error_surfaces_backpressure_fields(self):
        error = ServeError(
            "saturated", status=503,
            payload={"retry_after": 0.25, "scope": "queue"},
        )
        assert error.retry_after == 0.25
        assert error.scope == "queue"
        bare = ServeError("bad request", status=400, payload={})
        assert bare.retry_after is None and bare.scope is None

    def test_server_busy_attrs(self):
        busy = ServerBusy(
            "busy", retry_after=0.5,
            payload={"retry_after": 0.5, "scope": "client"},
        )
        assert busy.retry_after == 0.5
        assert busy.scope == "client"

    def test_client_counts_busy_and_retries(self, monkeypatch):
        client = ServeClient(port=9, backoff_seed=1)
        busy_envelope = {
            "ok": False, "status": 503, "error": "saturated",
            "retry_after": 0.0, "scope": "queue",
        }
        monkeypatch.setattr(
            client, "connect", lambda: client, raising=False
        )
        monkeypatch.setattr(
            client,
            "_sock",
            SimpleNamespace(
                sendall=lambda data: None, gettimeout=lambda: client.timeout
            ),
        )
        monkeypatch.setattr(
            client, "_read_reply", lambda request_id: dict(busy_envelope)
        )
        monkeypatch.setattr("time.sleep", lambda _s: None)
        with pytest.raises(ServerBusy) as caught:
            client.query("SELECT COUNT(*) FROM R", retries=2)
        assert caught.value.scope == "queue"
        snapshot = client.metrics.snapshot()
        assert sample_value(
            snapshot, "repro_client_busy_total", {"scope": "queue"}
        ) == 3
        assert sample_value(snapshot, "repro_client_retries_total") == 2
        assert sample_value(
            snapshot, "repro_client_requests_total", {"op": "query"}
        ) == 3


# ----------------------------------------------------------------------
# Server integration
# ----------------------------------------------------------------------

SQL = "SELECT COUNT(*) FROM R WHERE state = 'CA'"


class TestServerObservability:
    @pytest.fixture(scope="class")
    def running(self, summary):
        server = SummaryServer(
            summary, config=ServeConfig(trace_ring=64)
        )
        with ServerThread(server) as thread:
            yield server, thread

    def test_trace_id_in_json_envelope(self, running):
        server, _ = running
        with ServeClient(port=server.port, protocol="json") as client:
            response = client.call("query", sql=SQL)
        assert len(response["trace"]) == 16
        int(response["trace"], 16)  # valid hex

    def test_client_supplied_trace_id_adopted(self, running):
        server, _ = running
        with ServeClient(port=server.port, protocol="json") as client:
            response = client.call("query", sql=SQL, trace="00000000000000ff")
        assert response["trace"] == "00000000000000ff"

    def test_trace_id_on_binary_protocol(self, running):
        server, _ = running
        with ServeClient(port=server.port) as client:
            response = client.call("query", sql=SQL)
        assert len(response["trace"]) == 16

    def test_metrics_op_round_trips(self, running):
        server, _ = running
        with ServeClient(port=server.port) as client:
            client.query(SQL)
            view = client.server_metrics(include_traces=True)
        parsed = parse_prometheus(view["prometheus"])
        declared = set(server.metrics.names())
        assert declared <= set(parsed["types"])
        assert view["snapshot"]["repro_requests_total"]["type"] == "counter"
        assert view["traces"], "ring should hold recent traces"
        spans = {
            s["name"] for t in view["traces"] for s in t["spans"]
        }
        assert {"parse", "canonicalize", "route", "cache_lookup"} <= spans

    def test_stats_single_snapshot_shape(self, running):
        server, _ = running
        with ServeClient(port=server.port) as client:
            client.query(SQL)
            stats = client.stats()
        assert stats["requests"] >= 1
        assert stats["cache"]["hits"] + stats["cache"]["misses"] >= 1
        assert stats["slow_queries"]["enabled"] is False
        assert isinstance(stats["traces"], int)
        assert stats["admission"]["admitted"] >= 1

    def test_stage_histograms_fed(self, running):
        server, _ = running
        with ServeClient(port=server.port) as client:
            client.query(SQL)
        snapshot = server.metrics.snapshot()
        for stage in ("parse", "canonicalize", "route", "cache_lookup",
                      "encode"):
            _, count, _ = histogram_stats(
                snapshot, "repro_stage_seconds", {"stage": stage}
            )
            assert count >= 1, f"stage {stage} never observed"

    def test_unknown_op_counts_as_other(self, running):
        server, _ = running
        before = sample_value(
            server.metrics.snapshot(), "repro_errors_total", {"op": "other"}
        )
        with ServeClient(port=server.port) as client:
            with pytest.raises(ServeError):
                client.call("frobnicate")
        after = sample_value(
            server.metrics.snapshot(), "repro_errors_total", {"op": "other"}
        )
        assert after == before + 1


class TestSlowQueryIntegration:
    def test_slow_log_records_with_explain(self, summary, tmp_path):
        path = tmp_path / "slow.jsonl"
        server = SummaryServer(
            summary,
            config=ServeConfig(
                slow_query_ms=0.0, slow_query_log=str(path)
            ),
        )
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                client.query(SQL)
        entries = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert entries, "threshold 0 must record every query"
        entry = entries[0]
        assert entry["sql"] == SQL
        assert entry["explain"]
        assert entry["trace"]["spans"]
        snapshot = server.metrics.snapshot()
        assert sample_value(snapshot, "repro_slow_queries_total") >= 1
        assert server.slow_log.stats()["recorded"] >= 1


def _executor_server() -> SummaryServer:
    """A cache-less server whose executions take the executor hop: an
    exact backend scans rows, so they never run on the event loop, and
    a held execution blocks a worker thread, not the loop.  Only such
    executions can be joined — a one-pass execution on the loop ends
    before any other request runs."""
    return SummaryServer(
        ExactBackend(_relation()), config=ServeConfig(cache_size=0)
    )


def _hold_flushes(server):
    """Block every execution in the executor until the returned
    ``gate`` is set; ``entered`` is set once one is in flight."""
    gate, entered = threading.Event(), threading.Event()
    execute = server._execute_items

    def held(items):
        entered.set()
        assert gate.wait(timeout=10), "held flush never released"
        return execute(items)

    server._execute_items = held
    return gate, entered


def _until(condition, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.002)
    return True


class TestCoalescedTracePropagation:
    """Satellite: N same-key requests → one shared evaluate span,
    distinct trace ids, a queue-wait span for each joiner — and each
    joiner charged only for the part of the execution it waited
    through."""

    def test_shared_evaluate_span(self):
        clients = 4
        # Cache off so every request must coalesce; the held flush keeps
        # the first request's execution in flight until all four joined.
        server = _executor_server()
        gate, _ = _hold_flushes(server)
        with ServerThread(server):
            failures: list[BaseException] = []

            def one_query():
                try:
                    with ServeClient(port=server.port) as client:
                        client.query(SQL)
                except BaseException as error:  # pragma: no cover
                    failures.append(error)

            threads = [
                threading.Thread(target=one_query) for _ in range(clients)
            ]
            for thread in threads:
                thread.start()
            try:
                assert _until(lambda: server.coalescer.submitted == clients)
            finally:
                gate.set()
            for thread in threads:
                thread.join(timeout=15)
            assert not any(thread.is_alive() for thread in threads)
        assert not failures
        traces = [t for t in server.traces.traces() if t.op == "query"]
        assert len(traces) == clients
        assert len({t.trace_id for t in traces}) == clients, (
            "every coalesced waiter keeps its own trace id"
        )
        evaluate_ids, waits = set(), 0
        for trace in traces:
            evaluates = [s for s in trace.spans if s.name == "evaluate"]
            waits += sum(s.name == "coalesce_wait" for s in trace.spans)
            assert len(evaluates) == 1, "each trace sees the one evaluation"
            evaluate_ids.add(evaluates[0].span_id)
        # The request that evaluated waited on nobody; each joiner keeps
        # its own wait.
        assert waits == clients - 1
        assert len(evaluate_ids) == 1, (
            "same-key requests on one flush share one evaluate span"
        )
        assert server.coalescer.coalesced == clients - 1
        assert server.coalescer.flushes == 1

    def test_joiner_is_charged_only_for_what_it_waited_through(self):
        """A request that joins an execution mid-flight sees the shared
        span clipped to its own submit → resolve interval: its stages sum
        to no more than its own time, and evaluate is recorded once per
        execution in each waiter's stages."""
        server = _executor_server()
        gate, entered = _hold_flushes(server)
        holder_id, joiner_id = "0000000000000a01", "0000000000000a02"
        latency: dict[str, float] = {}
        failures: list[BaseException] = []

        def query(trace_id):
            try:
                with ServeClient(port=server.port, protocol="json") as client:
                    client.ping()  # connected: the timed call is one trip
                    began = time.perf_counter()
                    client.call("query", sql=SQL, trace=trace_id)
                    latency[trace_id] = time.perf_counter() - began
            except BaseException as error:  # pragma: no cover
                failures.append(error)

        with ServerThread(server):
            holder = threading.Thread(target=query, args=(holder_id,))
            joiner = threading.Thread(target=query, args=(joiner_id,))
            holder.start()
            try:
                assert entered.wait(timeout=10)
                # The flush has been in flight a while before the joiner
                # arrives; none of that while is the joiner's.
                time.sleep(0.05)
                joiner.start()
                assert _until(lambda: server.coalescer.submitted == 2)
            finally:
                gate.set()
            for thread in (holder, joiner):
                thread.join(timeout=10)
            assert not holder.is_alive() and not joiner.is_alive()
            snapshot = server.metrics.snapshot()
        assert not failures
        traces = {t.hex_id: t for t in server.traces.traces() if t.op == "query"}

        def spans(trace_id, name):
            return [s for s in traces[trace_id].spans if s.name == name]

        (held,), (joined,) = spans(holder_id, "evaluate"), spans(joiner_id, "evaluate")
        assert held.span_id == joined.span_id, "one execution answered both"
        assert joined.duration_s < held.duration_s - 0.04
        joiner_stages = sum(
            s.duration_s for s in traces[joiner_id].spans if s.name != "encode"
        )
        assert joiner_stages <= latency[joiner_id]
        _, evaluations, _ = histogram_stats(
            snapshot, "repro_stage_seconds", {"stage": "evaluate"}
        )
        assert evaluations == 2  # the one flush, once in each waiter
        request_s, _, _ = histogram_stats(
            snapshot, "repro_request_seconds", {"op": "query"}
        )
        all_stages = sum(
            s.duration_s
            for trace in traces.values()
            for s in trace.spans
            if s.name != "encode"
        )
        assert all_stages <= request_s


class TestChaosMetrics:
    def test_injections_become_labelled_counters(self):
        from repro.chaos import FaultInjector, FaultPlan
        from repro.chaos.faults import FaultSpec
        from repro.errors import InjectedFault

        plan = FaultPlan(
            seed=7, specs=(FaultSpec(hook="server.backend", error=True),)
        )
        injector = FaultInjector(plan).start()
        registry = MetricsRegistry()
        injector.bind_metrics(registry)
        with pytest.raises(InjectedFault):
            injector.act("server.backend")
        snapshot = registry.snapshot()
        assert sample_value(
            snapshot, "repro_chaos_calls_total", {"hook": "server.backend"}
        ) == 1
        assert sample_value(
            snapshot,
            "repro_chaos_injections_total",
            {"hook": "server.backend", "fault": "error"},
        ) == 1
        # the dict-shaped stats() report is unchanged
        stats = injector.stats()
        assert stats["calls"]["server.backend"] == 1
        assert stats["total_injected"] == 1
