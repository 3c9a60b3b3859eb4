"""Tests for the chaos soak harness: fault plans, the injector, the
hook wiring through serve/ingest, the invariant checker, and (behind
``--soak``) short live scenarios.

The unit pieces run on fake clocks and synthetic :class:`SoakResult`
records, so every invariant violation is provably *caught*, not just
absent.  The hook-wiring tests boot a real server with an always-on
injector and verify each fault surfaces the way the soak contract
needs: retryable 503s, clean reconnects, untouched pipeline state.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Explorer, SummaryBuilder, SummaryStore
from repro.baselines.exact import ExactBackend
from repro.chaos import (
    FAULT_NAMES,
    HOOKS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    OperatorEvent,
    SoakConfig,
    SoakResult,
    check_invariants,
    run_soak,
)
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import ChaosError
from repro.ingest import AppendBatch, IngestPipeline
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeError,
    ServerBusy,
    ServerThread,
    SummaryServer,
)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

def _schema() -> Schema:
    return Schema(
        [Domain("state", ["CA", "NY", "WA"]), integer_domain("hour", 4)]
    )


def _relation(rows: int = 300, seed: int = 3) -> Relation:
    rng = np.random.default_rng(seed)
    return Relation(
        _schema(),
        [rng.choice(3, size=rows, p=[0.5, 0.3, 0.2]), rng.integers(0, 4, rows)],
    )


def _fit(relation: Relation, name: str = "chaos-test"):
    return (
        SummaryBuilder(relation)
        .pairs(("state", "hour"))
        .per_pair_budget(4)
        .iterations(40)
        .name(name)
        .fit()
    )


@pytest.fixture(scope="module")
def relation():
    return _relation()


@pytest.fixture(scope="module")
def summary(relation):
    return _fit(relation)


def _armed(
    hook: str,
    *,
    probability: float = 1.0,
    delay_s: float = 0.0,
    error: bool = False,
    stop_s: float = 1.0,
    clock=None,
) -> FaultInjector:
    """A started injector with one always-firing window on ``hook``."""
    plan = FaultPlan(
        seed=0,
        specs=(
            FaultSpec(
                hook,
                probability=probability,
                delay_s=delay_s,
                error=error,
                start_s=0.0,
                stop_s=stop_s,
            ),
        ),
    )
    if clock is None:
        return FaultInjector(plan).start()
    return FaultInjector(plan, clock=clock).start()


# ----------------------------------------------------------------------
# FaultSpec / OperatorEvent validation
# ----------------------------------------------------------------------

class TestFaultSpec:
    def test_unknown_hook_rejected(self):
        with pytest.raises(ChaosError, match="unknown chaos hook"):
            FaultSpec("server.frobnicate")

    def test_probability_out_of_range(self):
        with pytest.raises(ChaosError, match="probability"):
            FaultSpec("server.backend", probability=1.5)

    def test_negative_delay(self):
        with pytest.raises(ChaosError, match="delay_s"):
            FaultSpec("server.backend", delay_s=-0.1)

    def test_empty_window(self):
        with pytest.raises(ChaosError, match="empty"):
            FaultSpec("server.backend", start_s=2.0, stop_s=2.0)

    def test_active_at(self):
        spec = FaultSpec("server.backend", start_s=1.0, stop_s=3.0)
        assert not spec.active_at(0.5)
        assert spec.active_at(1.0)
        assert spec.active_at(2.9)
        assert not spec.active_at(3.0)

    def test_operator_event_validation(self):
        with pytest.raises(ChaosError, match="reload.*rollback|rollback"):
            OperatorEvent(1.0, "explode")
        with pytest.raises(ChaosError, match="at_s"):
            OperatorEvent(-1.0, "reload")


# ----------------------------------------------------------------------
# FaultPlan.build
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_build_is_deterministic(self):
        first = FaultPlan.build(7, 30.0)
        second = FaultPlan.build(7, 30.0)
        assert first == second  # frozen dataclasses compare by value

    def test_different_seeds_differ(self):
        assert FaultPlan.build(1, 30.0) != FaultPlan.build(2, 30.0)

    def test_all_enables_every_hook_and_operator(self):
        plan = FaultPlan.build(3, 30.0, ("all",))
        assert plan.fault_kinds == tuple(sorted(HOOKS))
        actions = {event.action for event in plan.operations}
        assert actions == {"reload", "rollback"}

    def test_windows_leave_warmup_and_drain(self):
        duration = 30.0
        plan = FaultPlan.build(5, duration)
        for spec in plan.specs:
            assert spec.start_s >= 0.10 * duration
            assert spec.stop_s <= duration
        for event in plan.operations:
            assert 0.10 * duration <= event.at_s <= 0.85 * duration

    def test_unknown_fault_name(self):
        with pytest.raises(ChaosError, match="unknown fault name"):
            FaultPlan.build(0, 10.0, ("gremlins",))

    def test_none_and_empty_build_the_quiet_plan(self):
        assert FaultPlan.build(4, 10.0, ("none",)) == FaultPlan.quiet(4)
        assert FaultPlan.build(4, 10.0, ()) == FaultPlan.quiet(4)
        quiet = FaultPlan.quiet(4)
        assert quiet.specs == () and quiet.operations == ()

    def test_single_fault_selection(self):
        plan = FaultPlan.build(0, 20.0, ("watcher",))
        assert plan.fault_kinds == ("watcher.poll",)
        assert plan.operations == ()

    def test_max_window_s(self):
        plan = FaultPlan(
            specs=(
                FaultSpec("watcher.poll", start_s=1.0, stop_s=1.5),
                FaultSpec("watcher.poll", start_s=4.0, stop_s=6.0),
            )
        )
        assert plan.max_window_s("watcher.poll") == pytest.approx(2.0)
        assert plan.max_window_s("server.backend") == 0.0

    def test_invalid_duration(self):
        with pytest.raises(ChaosError, match="duration_s"):
            FaultPlan.build(0, 0.0)

    def test_describe_mentions_seed_and_kinds(self):
        text = FaultPlan.build(9, 20.0, ("watcher",)).describe()
        assert "seed=9" in text and "watcher.poll" in text


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------

class TestFaultInjector:
    def test_inert_before_start(self):
        plan = FaultPlan(specs=(FaultSpec("server.backend", error=True),))
        injector = FaultInjector(plan)  # never started
        assert injector.decide("server.backend") is None
        injector.act("server.backend")  # no raise
        assert injector.stats()["total_injected"] == 0

    def test_inert_after_disable(self):
        injector = _armed("server.backend", error=True, stop_s=math.inf)
        assert injector.decide("server.backend") is not None
        injector.disable()
        assert injector.decide("server.backend") is None

    def test_unknown_hook_rejected(self):
        injector = _armed("server.backend")
        with pytest.raises(ChaosError, match="unknown chaos hook"):
            injector.decide("server.mystery")

    def test_outside_window_no_fault(self):
        now = [0.0]
        injector = _armed(
            "server.backend", error=True, stop_s=1.0, clock=lambda: now[0]
        )
        now[0] = 5.0  # past the window
        assert injector.decide("server.backend") is None
        assert injector.stats()["calls"]["server.backend"] == 1
        assert injector.stats()["injected"]["server.backend"] == 0

    def test_decision_streams_are_seeded(self):
        # Two injectors over the same plan make identical k-th decisions
        # at each hook — the replayability contract.
        plan = FaultPlan(
            seed=42,
            specs=(
                FaultSpec("server.backend", probability=0.5, error=True),
                FaultSpec("watcher.poll", probability=0.3, error=True),
            ),
        )
        now = [0.0]

        def stream(hook):
            injector = FaultInjector(plan, clock=lambda: now[0]).start()
            return [
                injector.decide(hook) is not None for _ in range(50)
            ]

        assert stream("server.backend") == stream("server.backend")
        assert stream("watcher.poll") == stream("watcher.poll")
        # ... and the streams are genuinely probabilistic, not all-fire.
        fired = stream("server.backend")
        assert 0 < sum(fired) < len(fired)

    def test_act_raises_injected_fault_with_hook(self):
        injector = _armed("ingest.append", error=True)
        with pytest.raises(InjectedFault) as caught:
            injector.act("ingest.append")
        assert caught.value.hook == "ingest.append"
        assert isinstance(caught.value, ChaosError)

    def test_act_applies_delay(self):
        injector = _armed("server.backend", delay_s=0.05)
        began = time.perf_counter()
        injector.act("server.backend")  # slow fault: sleeps, no raise
        assert time.perf_counter() - began >= 0.04

    def test_act_async_awaits_the_delay_then_raises(self):
        injector = _armed("server.backend", delay_s=0.05, error=True)
        ticks = []

        async def ticker():
            while True:
                ticks.append(time.perf_counter())
                await asyncio.sleep(0.005)

        async def act():
            beat = asyncio.create_task(ticker())
            began = time.perf_counter()
            with pytest.raises(InjectedFault):
                await injector.act_async("server.backend")
            beat.cancel()
            return time.perf_counter() - began

        assert asyncio.run(act()) >= 0.04
        assert len(ticks) >= 3, "the delay must not block the event loop"

    def test_events_and_stats_record_injections(self):
        injector = _armed("server.backend", error=True)
        for _ in range(3):
            with pytest.raises(InjectedFault):
                injector.act("server.backend")
        events = injector.events()
        assert len(events) == 3
        assert all(e["hook"] == "server.backend" for e in events)
        assert all(e["error"] is True for e in events)
        stats = injector.stats()
        assert stats["injected"]["server.backend"] == 3
        assert stats["total_injected"] == 3


# ----------------------------------------------------------------------
# Hook wiring: each fault surfaces the way the soak contract needs
# ----------------------------------------------------------------------

class TestChaosWiring:
    def test_server_drop_connection_is_survivable(self, summary):
        now = [0.0]
        injector = _armed(
            "server.drop_connection", stop_s=1.0, clock=lambda: now[0]
        )
        server = SummaryServer(
            summary, chaos=injector
        )
        with ServerThread(server):
            client = ServeClient(port=server.port)
            try:
                with pytest.raises(ServeError, match="closed the connection"):
                    client.ping()
                now[0] = 5.0  # window over; reconnect and carry on
                client.close()
                assert client.ping() == {"version": 0}
            finally:
                client.close()
        assert injector.stats()["injected"]["server.drop_connection"] >= 1

    def test_backend_fault_maps_to_retryable_503(self, summary):
        now = [0.0]
        injector = _armed(
            "server.backend", error=True, stop_s=1.0, clock=lambda: now[0]
        )
        server = SummaryServer(
            summary, chaos=injector
        )
        sql = "SELECT COUNT(*) FROM R WHERE state = 'CA'"
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                with pytest.raises(ServerBusy) as caught:
                    client.query(sql)
                assert caught.value.retry_after > 0
                assert caught.value.payload["scope"] == "chaos"
                assert "injected fault" in str(caught.value)
                now[0] = 5.0  # window over; the same query now succeeds
                assert client.query(sql)["kind"] == "scalar"
                # The connection survived the injected failure.
                assert client.ping() == {"version": 0}

    def test_worker_kill_fails_the_flush_retryably(self, summary):
        now = [0.0]
        injector = _armed(
            "server.worker_kill", error=True, stop_s=1.0, clock=lambda: now[0]
        )
        server = SummaryServer(
            summary, chaos=injector
        )
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                with pytest.raises(ServerBusy) as caught:
                    client.query("SELECT COUNT(*) FROM R")
                assert caught.value.payload["scope"] == "chaos"
                now[0] = 5.0
                assert client.query("SELECT COUNT(*) FROM R")["kind"] == "scalar"

    def test_slow_backend_delays_but_answers(self, summary):
        injector = _armed("server.backend", delay_s=0.08, stop_s=math.inf)
        server = SummaryServer(
            summary,
            config=ServeConfig(cache_size=0),
            chaos=injector,
        )
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                began = time.perf_counter()
                payload = client.query("SELECT COUNT(*) FROM R")
                elapsed = time.perf_counter() - began
        assert payload["kind"] == "scalar"
        assert elapsed >= 0.07

    def test_slow_backend_never_stalls_the_loop(self, summary):
        """The delay is awaited on the loop, not slept: while one
        connection's query sits in a 0.3 s injected delay, a second
        connection still gets its ping answered at once."""
        injector = _armed("server.backend", delay_s=0.3, stop_s=math.inf)
        server = SummaryServer(
            summary, config=ServeConfig(cache_size=0), chaos=injector
        )

        def slow_query():
            with ServeClient(port=server.port) as client:
                client.query("SELECT COUNT(*) FROM R")

        with ServerThread(server):
            slow = threading.Thread(target=slow_query)
            slow.start()
            deadline = time.monotonic() + 5.0
            while (
                injector.stats()["injected"]["server.backend"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.002)
            began = time.perf_counter()
            with ServeClient(port=server.port) as other:
                assert other.ping() == {"version": 0}
            elapsed = time.perf_counter() - began
            assert slow.is_alive(), "the ping must land inside the delay"
            slow.join(timeout=5)
            assert not slow.is_alive()
        assert elapsed < 0.1

    def test_client_drop_raises_and_reconnects(self, summary):
        now = [0.0]
        injector = _armed(
            "client.drop_connection", stop_s=1.0, clock=lambda: now[0]
        )
        server = SummaryServer(summary)
        with ServerThread(server):
            client = ServeClient(port=server.port, chaos=injector)
            try:
                with pytest.raises(ServeError, match="client-side"):
                    client.ping()
                now[0] = 5.0
                assert client.ping() == {"version": 0}  # auto-reconnected
            finally:
                client.close()

    def test_watcher_poll_fault_is_absorbed_and_recovers(
        self, relation, tmp_path
    ):
        store = SummaryStore(tmp_path / "models")
        store.save(_fit(relation, "demo"), "demo")
        now = [0.0]
        injector = _armed(
            "watcher.poll", error=True, stop_s=1.0, clock=lambda: now[0]
        )
        server = SummaryServer(
            store=store,
            name="demo",
            config=ServeConfig(watch_interval=0.05),
            chaos=injector,
        )
        with ServerThread(server):
            deadline = time.monotonic() + 5.0
            while (
                server.watcher.errors == 0 and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert server.watcher.errors >= 1  # polls failed...
            with ServeClient(port=server.port) as client:
                assert client.ping() == {"version": 1}  # ...server alive
            # End the outage; a newer publish must now be picked up.
            now[0] = 5.0
            store.save(_fit(_relation(rows=400, seed=4), "demo"), "demo")
            deadline = time.monotonic() + 5.0
            while server.version < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.version == 2

    def test_ingest_fault_leaves_pipeline_state_untouched(
        self, relation, tmp_path
    ):
        store = SummaryStore(tmp_path / "models")
        store.save(_fit(relation, "demo"), "demo")
        injector = _armed("ingest.append", error=True, stop_s=math.inf)
        pipeline = IngestPipeline.from_store(
            store, "demo", relation, chaos=injector
        )
        rows_before = pipeline.total
        batch = [("CA", 1), ("NY", 2), ("WA", 3)]
        with pytest.raises(InjectedFault):
            pipeline.append(batch)
        # The hook fires before any mutation: nothing moved, nothing
        # published — the same batch is safely retryable.
        assert pipeline.total == rows_before
        assert store.latest_version("demo") == 1
        injector.disable()
        report = pipeline.append(batch)
        assert report.rows_appended == len(batch)
        assert store.latest_version("demo") == 2
        assert pipeline.total == rows_before + len(batch)

    def test_server_stats_expose_chaos_counters(self, summary):
        injector = _armed("server.backend", error=True, stop_s=math.inf)
        server = SummaryServer(
            summary, chaos=injector
        )
        with ServerThread(server):
            with ServeClient(port=server.port) as client:
                with pytest.raises(ServerBusy):
                    client.query("SELECT COUNT(*) FROM R")
                stats = client.stats()
        assert stats["chaos"]["total_injected"] >= 1
        assert stats["chaos"]["seed"] == 0


# ----------------------------------------------------------------------
# Invariant checker over synthetic records: violations must be CAUGHT
# ----------------------------------------------------------------------

def _healthy_result(**overrides) -> SoakResult:
    """A synthetic passing record: 3 requests, 2 publishes promptly
    served, an unbroken lineage chain, drift equal to baseline."""
    fields = dict(
        requests=[
            {"t_s": 0.5, "reader": 0, "sql": "q", "outcome": "ok",
             "busy_retries": 1, "fault_retries": 0},
            {"t_s": 1.0, "reader": 1, "sql": "q", "outcome": "ok",
             "busy_retries": 0, "fault_retries": 2},
            {"t_s": 2.0, "reader": 0, "sql": "q", "outcome": "ok",
             "busy_retries": 0, "fault_retries": 0},
        ],
        probes=[
            {"t_s": 0.1, "version": 1},
            {"t_s": 1.1, "version": 2},
            {"t_s": 2.1, "version": 3},
        ],
        publishes=[
            {"t_s": 1.0, "version": 2, "parent": 1, "rows": 10},
            {"t_s": 2.0, "version": 3, "parent": 2, "rows": 10},
        ],
        operations=[],
        error_drift=0.02,
        baseline_drift=0.02,
        staleness_bound_s=1.0,
        duration_s=3.0,
    )
    fields.update(overrides)
    return SoakResult(**fields)


class TestInvariants:
    def test_healthy_record_passes(self):
        report = check_invariants(_healthy_result())
        assert report.ok
        assert report.violations == ()
        report.raise_if_failed()  # no raise
        names = [check.name for check in report.checks]
        assert names == [
            "zero-dropped",
            "bounded-staleness",
            "monotone-lineage",
            "bounded-error-drift",
        ]
        assert report.to_dict()["ok"] is True

    def test_dropped_request_is_flagged(self):
        result = _healthy_result()
        result.requests.append(
            {"t_s": 2.5, "reader": 2, "sql": "q", "outcome": "dropped",
             "error": "deadline", "busy_retries": 9, "fault_retries": 0}
        )
        report = check_invariants(result)
        assert not report.ok
        (violation,) = report.violations
        assert violation.name == "zero-dropped"
        assert "deadline" in violation.detail
        with pytest.raises(ChaosError, match="invariant violation"):
            report.raise_if_failed()

    def test_late_publish_is_flagged(self):
        # v3 published at t=2.0 but first served at t=3.8 with bound 1.0.
        result = _healthy_result(
            probes=[
                {"t_s": 0.1, "version": 1},
                {"t_s": 1.1, "version": 2},
                {"t_s": 3.8, "version": 3},
            ]
        )
        report = check_invariants(result)
        violations = {check.name for check in report.violations}
        assert "bounded-staleness" in violations

    def test_never_served_publish_is_flagged(self):
        result = _healthy_result(
            probes=[{"t_s": 0.1, "version": 1}, {"t_s": 1.1, "version": 2}]
        )
        report = check_invariants(result)
        assert any(
            check.name == "bounded-staleness" and "never served" in check.detail
            for check in report.violations
        )

    def test_rollback_obscured_publish_is_exempt(self):
        # v3's publish is followed by a rollback within the bound: the
        # stickiness contract requires it to stay hidden.
        result = _healthy_result(
            probes=[
                {"t_s": 0.1, "version": 1},
                {"t_s": 1.1, "version": 2},
                {"t_s": 2.2, "version": 2},
            ],
            operations=[
                {"t_s": 2.3, "action": "rollback", "version": 2,
                 "from_version": 3},
            ],
        )
        report = check_invariants(result)
        staleness = next(
            check for check in report.checks
            if check.name == "bounded-staleness"
        )
        assert staleness.ok
        assert "1 rollback-exempt" in staleness.detail

    def test_version_flip_without_rollback_is_flagged(self):
        result = _healthy_result(
            probes=[
                {"t_s": 0.1, "version": 1},
                {"t_s": 1.1, "version": 2},
                {"t_s": 1.5, "version": 1},  # served version went BACK
                {"t_s": 2.1, "version": 3},
            ]
        )
        report = check_invariants(result)
        assert any(
            check.name == "monotone-lineage"
            and "no rollback to explain it" in check.detail
            for check in report.violations
        )

    def test_version_flip_with_matching_rollback_is_allowed(self):
        result = _healthy_result(
            probes=[
                {"t_s": 0.1, "version": 1},
                {"t_s": 1.1, "version": 2},
                {"t_s": 1.5, "version": 1},  # rolled back on purpose
                {"t_s": 2.1, "version": 3},
            ],
            operations=[
                {"t_s": 1.4, "action": "rollback", "version": 1,
                 "from_version": 2},
            ],
        )
        report = check_invariants(result)
        monotone = next(
            check for check in report.checks
            if check.name == "monotone-lineage"
        )
        assert monotone.ok

    def test_rollback_recorded_just_after_flip_is_allowed(self):
        # The operator records intent time, but a chaos-dropped reload
        # *response* pushes the record onto a retry — the flip can be
        # observed slightly before the recorded t_s.  Within the slack
        # window that is the same rollback, not a violation.
        result = _healthy_result(
            probes=[
                {"t_s": 0.1, "version": 1},
                {"t_s": 1.1, "version": 2},
                {"t_s": 1.5, "version": 1},
                {"t_s": 2.1, "version": 3},
            ],
            operations=[
                {"t_s": 1.65, "action": "rollback", "version": 1,
                 "from_version": 2},  # 0.15s after the flip: retry skew
            ],
        )
        monotone = next(
            check for check in check_invariants(result).checks
            if check.name == "monotone-lineage"
        )
        assert monotone.ok

    def test_rollback_recorded_far_after_flip_is_flagged(self):
        result = _healthy_result(
            probes=[
                {"t_s": 0.1, "version": 1},
                {"t_s": 1.1, "version": 2},
                {"t_s": 1.5, "version": 1},
                {"t_s": 2.1, "version": 3},
            ],
            operations=[
                {"t_s": 1.9, "action": "rollback", "version": 1,
                 "from_version": 2},  # beyond any record skew
            ],
        )
        report = check_invariants(result)
        assert any(
            check.name == "monotone-lineage"
            and "no rollback to explain it" in check.detail
            for check in report.violations
        )

    def test_broken_lineage_chain_is_flagged(self):
        result = _healthy_result(
            publishes=[
                {"t_s": 1.0, "version": 2, "parent": 1, "rows": 10},
                {"t_s": 2.0, "version": 3, "parent": 1, "rows": 10},  # !
            ]
        )
        report = check_invariants(result)
        assert any(
            check.name == "monotone-lineage" and "claims parent" in check.detail
            for check in report.violations
        )

    def test_drift_violation_is_flagged(self):
        result = _healthy_result(error_drift=0.10, baseline_drift=0.02)
        report = check_invariants(result)
        assert any(
            check.name == "bounded-error-drift"
            for check in report.violations
        )
        # A looser acceptance ratio admits the same record.
        assert check_invariants(result, max_drift_ratio=10.0).ok

    def test_drift_slack_protects_near_zero_baselines(self):
        result = _healthy_result(error_drift=0.005, baseline_drift=0.0)
        assert check_invariants(result).ok  # ratio is huge, slack saves it
        assert not check_invariants(result, drift_slack=0.001).ok


class TestSoakConfigAndResult:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"duration_s": 0.0}, "duration_s"),
            ({"readers": 0}, "readers"),
            ({"request_deadline_s": 0.0}, "request_deadline_s"),
            ({"ingest_every_s": 0.0}, "ingest_every_s"),
            ({"batch_rows": 0}, "batch_rows"),
            ({"watch_interval": 0.0}, "watch_interval"),
            ({"base_rows": 5}, "base_rows"),
            ({"probe_every_s": 0.0}, "probe_every_s"),
        ],
    )
    def test_validation_names_the_field(self, overrides, message):
        from dataclasses import replace

        with pytest.raises(ChaosError, match=message):
            replace(SoakConfig(), **overrides).validated()

    def test_staleness_bound_budgets_the_watcher_outage(self):
        quiet = SoakConfig(faults=("none",), watch_interval=0.2)
        assert quiet.staleness_bound_s == pytest.approx(2 * 0.2 + 1.0)
        chaotic = SoakConfig(faults=("watcher",), watch_interval=0.2)
        plan = FaultPlan.build(
            chaotic.seed, chaotic.duration_s, chaotic.faults
        )
        assert chaotic.staleness_bound_s == pytest.approx(
            2 * 0.2 + plan.max_window_s("watcher.poll") + 1.0
        )

    def test_metrics_and_event_log_shape(self):
        result = _healthy_result()
        metrics = result.to_metrics()
        assert metrics["dropped_requests"] == 0.0
        assert metrics["publishes"] == 2.0
        assert metrics["busy_retries"] == 1.0
        assert metrics["fault_retries"] == 2.0
        assert metrics["error_drift_ratio"] == pytest.approx(1.0)
        log = result.event_log()
        assert [entry["t_s"] for entry in log] == sorted(
            entry["t_s"] for entry in log
        )
        assert {entry["kind"] for entry in log} == {"publish"}

    def test_fault_names_cover_the_cli_surface(self):
        # The CLI --faults help and docs enumerate these; a rename must
        # be deliberate.
        assert set(FAULT_NAMES) == {
            "worker-kill", "slow-backend", "error-backend",
            "drop-connection", "client-drop", "cluster-kill", "watcher",
            "reload", "rollback",
        }


# ----------------------------------------------------------------------
# Property: appends + reloads serve answers consistent with ground truth
# ----------------------------------------------------------------------

_LABELS = ("CA", "NY", "WA")

_batches = st.lists(
    st.tuples(st.sampled_from(_LABELS), st.integers(0, 3)),
    min_size=1,
    max_size=12,
)
# An op is either an append batch (list of rows) or a reload marker.
_ops = st.lists(
    st.one_of(_batches, st.just("reload")), min_size=0, max_size=4
)


class TestServeIngestProperty:
    """Satellite invariant: any sequence of appends and hot reloads
    leaves the served answers equal to a fresh :class:`ExactBackend`
    over the concatenated relation, within the summary's documented
    error bands (totals ~2% relative, per-state counts ~5% relative —
    the bands ``tests/test_ingest.py`` establishes for delta refits).
    """

    @settings(max_examples=8, deadline=None)
    @given(ops=_ops)
    def test_appends_and_reloads_track_ground_truth(self, ops):
        import tempfile

        relation = _relation(rows=200, seed=9)
        with tempfile.TemporaryDirectory(prefix="repro-chaos-prop-") as tmp:
            store = SummaryStore(tmp)
            store.save(_fit(relation, "prop"), "prop")
            pipeline = IngestPipeline.from_store(store, "prop", relation)
            server = SummaryServer(
                store=store, name="prop"
            )
            with ServerThread(server):
                with ServeClient(port=server.port) as client:
                    for op in ops:
                        if op == "reload":
                            assert client.reload() == store.latest_version(
                                "prop"
                            )
                        else:
                            batch = AppendBatch.from_rows(
                                pipeline.schema, op
                            )
                            pipeline.append(batch)
                    # Serve the final version regardless of how the ops
                    # interleaved publishes and reloads.
                    client.reload()
                    assert client.ping()["version"] == store.latest_version(
                        "prop"
                    )
                    exact = Explorer.attach(ExactBackend(pipeline.relation))
                    total = client.count("SELECT COUNT(*) FROM R")
                    truth = exact.sql("SELECT COUNT(*) FROM R").scalar
                    assert total == pytest.approx(truth, rel=0.02, abs=1.5)
                    for state in _LABELS:
                        sql = (
                            "SELECT COUNT(*) FROM R WHERE "
                            f"state = '{state}'"
                        )
                        assert client.count(sql) == pytest.approx(
                            exact.sql(sql).scalar, rel=0.05, abs=2.5
                        )


# ----------------------------------------------------------------------
# Live soak scenarios (opt-in: --soak or REPRO_SOAK=1)
# ----------------------------------------------------------------------

@pytest.mark.soak
class TestSoakScenarios:
    def test_all_faults_short_soak_holds_invariants(self):
        config = SoakConfig(duration_s=6.0, seed=11, readers=3)
        result = run_soak(config)
        check_invariants(result).raise_if_failed()
        assert result.dropped == []
        assert len(result.injections) > 0  # chaos actually happened
        assert len(result.publishes) >= 1  # ingest actually published
        # The recorded plan replays from the seed alone.
        assert result.plan == FaultPlan.build(
            config.seed, config.duration_s, config.faults
        )

    def test_quiet_soak_is_clean(self):
        result = run_soak(
            SoakConfig(duration_s=3.0, seed=5, readers=2, faults=("none",))
        )
        check_invariants(result).raise_if_failed()
        assert result.injections == []
        assert result.operations == []
        assert result.drift_ratio == pytest.approx(1.0)

    def test_same_seed_same_decision_streams(self):
        # Full replayability of the *fault schedule*: two runs with the
        # same seed inject from identical plans (wall-clock interleaving
        # may differ; the plan and decision streams may not).
        first = run_soak(SoakConfig(duration_s=2.0, seed=21, readers=2))
        second = run_soak(SoakConfig(duration_s=2.0, seed=21, readers=2))
        assert first.plan == second.plan
        check_invariants(first).raise_if_failed()
        check_invariants(second).raise_if_failed()
