"""Multi-tenant soak scenarios: sustained mixed traffic under chaos.

One :func:`run_soak` call stands up the whole serving stack the way a
deployment runs it — a store-backed :class:`SummaryServer` with its
:class:`StoreWatcher` polling, N named reader sessions, one streaming
ingester publishing :class:`IngestPipeline` micro-batches, an operator thread
executing scheduled hot reloads and rollbacks — and lets a seeded
:class:`~repro.chaos.faults.FaultInjector` attack every layer at once
for ``duration_s`` seconds.  Everything that happens is recorded into a
:class:`SoakResult`, which :func:`~repro.chaos.invariants.check_invariants`
then audits: zero dropped requests, bounded staleness, monotone
lineage, bounded error drift.

The reader protocol is the honest-client loop: a 503 (admission control
*or* an injected backend fault — the server answers both with a
``retry_after`` hint) backs off jittered on the hint; a transport
failure (dropped connection, either side) reconnects and retries; only
a request that cannot reach ``ok`` before its deadline counts as
dropped — and any drop fails the scenario.

Determinism: the fault schedule, the ingest batch contents, and every
reader's query choices are all pure functions of ``SoakConfig.seed``,
so a failing scenario replays from its seed (wall-clock interleaving
varies; the decision streams do not).  The no-chaos drift baseline
exploits the same property: the identical seeded batch sequence is
replayed offline through a fresh pipeline, and the chaos run's final
model must match it to within the acceptance ratio.
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api.builder import SummaryBuilder
from repro.api.explorer import Explorer
from repro.api.store import SummaryStore
from repro.baselines.exact import ExactBackend
from repro.chaos.faults import FaultInjector, FaultPlan
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import ChaosError, InjectedFault, ReproError
from repro.ingest import AppendBatch, IngestPipeline
from repro.serve.client import ServeClient, ServeError, ServerBusy, backoff_delay
from repro.serve.server import ServeConfig, ServerThread, SummaryServer

#: Scalar queries both the drift measurement and the readers use.
SCALAR_QUERIES = (
    "SELECT COUNT(*) FROM R",
    "SELECT COUNT(*) FROM R WHERE state = 'CA'",
    "SELECT COUNT(*) FROM R WHERE state = 'NY' AND hour >= 6",
    "SELECT COUNT(*) FROM R WHERE hour BETWEEN 2 AND 7",
    "SELECT COUNT(*) FROM R WHERE state = 'TX' AND hour < 4",
    "SELECT COUNT(*) FROM R WHERE hour >= 9",
)

#: The readers mix in grouped queries and a canonical-duplicate range
#: (it coalesces and caches with its BETWEEN spelling above).
READER_QUERIES = SCALAR_QUERIES + (
    "SELECT COUNT(*) FROM R GROUP BY state",
    "SELECT COUNT(*) FROM R WHERE hour >= 2 AND hour <= 7",
)


@dataclass(frozen=True)
class SoakConfig:
    """One soak scenario, fully determined by its fields."""

    duration_s: float = 10.0
    seed: int = 0
    #: Concurrent reader sessions (tenants).
    readers: int = 4
    #: Per-request retry budget: a request that cannot reach ``ok``
    #: within this window counts as dropped (and fails the scenario).
    request_deadline_s: float = 10.0
    #: Streaming ingester cadence and micro-batch size.
    ingest_every_s: float = 0.5
    batch_rows: int = 40
    #: Store-watcher poll interval (the serving staleness knob).
    watch_interval: float = 0.2
    #: Rows in the base relation the initial summary is fitted from.
    base_rows: int = 600
    #: Version-probe cadence (feeds staleness + monotonicity checks).
    probe_every_s: float = 0.02
    #: Fault selection, as FaultPlan.build() names; ("none",) = quiet.
    faults: tuple[str, ...] = ("all",)
    #: Store directory; None = a temporary directory per run.
    store_dir: str | None = None

    def validated(self) -> "SoakConfig":
        checks = [
            (self.duration_s > 0, "duration_s must be > 0"),
            (self.readers >= 1, "readers must be >= 1"),
            (self.request_deadline_s > 0, "request_deadline_s must be > 0"),
            (self.ingest_every_s > 0, "ingest_every_s must be > 0"),
            (self.batch_rows >= 1, "batch_rows must be >= 1"),
            (self.watch_interval > 0, "watch_interval must be > 0"),
            (self.base_rows >= 10, "base_rows must be >= 10"),
            (self.probe_every_s > 0, "probe_every_s must be > 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ChaosError(f"soak config: {message}")
        return self

    @property
    def staleness_bound_s(self) -> float:
        """The invariant's ε is derived, not guessed: two poll
        intervals (one for cadence, one for a poll already in flight)
        plus the longest injected watcher outage plus a 1 s allowance
        for the executor-side reload itself."""
        plan = FaultPlan.build(self.seed, self.duration_s, self.faults)
        return (
            2 * self.watch_interval + plan.max_window_s("watcher.poll") + 1.0
        )


@dataclass
class SoakResult:
    """Everything one scenario did, ready for invariant checking."""

    config: SoakConfig = field(default_factory=SoakConfig)
    plan: FaultPlan = field(default_factory=FaultPlan)
    #: One dict per logical reader request (terminal outcome).
    requests: list = field(default_factory=list)
    #: ``{"t_s", "version"}`` stream from the dedicated probe session.
    probes: list = field(default_factory=list)
    #: ``{"t_s", "version", "parent", "rows"}`` per ingester publish.
    publishes: list = field(default_factory=list)
    #: ``{"t_s", "action", "version"}`` per executed operator event.
    operations: list = field(default_factory=list)
    #: The injector's event log.
    injections: list = field(default_factory=list)
    server_stats: dict = field(default_factory=dict)
    #: Mean relative error of the final chaos-run model vs ExactBackend.
    error_drift: float = 0.0
    #: Same batches replayed with no chaos (the acceptance reference).
    baseline_drift: float = 0.0
    staleness_bound_s: float = 1.0
    duration_s: float = 0.0

    @property
    def dropped(self) -> list:
        return [r for r in self.requests if r.get("outcome") != "ok"]

    @property
    def drift_ratio(self) -> float:
        return self.error_drift / max(self.baseline_drift, 1e-9)

    def max_staleness_s(self) -> float:
        """Worst observed publish→served lag (rollback-obscured
        publishes excluded, mirroring the invariant)."""
        probes = sorted(self.probes, key=lambda p: p["t_s"])
        worst = 0.0
        for publish in self.publishes:
            if any(
                op.get("action") == "rollback"
                and publish["t_s"] <= op["t_s"] <= publish["t_s"] + self.staleness_bound_s
                for op in self.operations
            ):
                continue
            seen = next(
                (
                    p["t_s"]
                    for p in probes
                    if p["t_s"] >= publish["t_s"]
                    and p["version"] >= publish["version"]
                ),
                None,
            )
            if seen is not None:
                worst = max(worst, seen - publish["t_s"])
        return worst

    def to_metrics(self) -> dict:
        """Flat numeric dict for the benchmark emitter."""
        requests = len(self.requests)
        return {
            "soak_duration_s": round(self.duration_s, 2),
            "soak_requests": float(requests),
            "soak_qps": round(requests / max(self.duration_s, 1e-9), 1),
            "dropped_requests": float(len(self.dropped)),
            "busy_retries": float(
                sum(r.get("busy_retries", 0) for r in self.requests)
            ),
            "fault_retries": float(
                sum(r.get("fault_retries", 0) for r in self.requests)
            ),
            "publishes": float(len(self.publishes)),
            "rollbacks": float(
                sum(1 for op in self.operations if op["action"] == "rollback")
            ),
            "faults_injected": float(len(self.injections)),
            "staleness_max_s": round(self.max_staleness_s(), 3),
            "final_drift": round(self.error_drift, 5),
            "error_drift_ratio": round(self.drift_ratio, 4),
        }

    def event_log(self) -> list[dict]:
        """Merged, time-ordered scenario log (the CI failure artifact):
        every injection, operator action, publish, and non-ok request."""
        events = []
        for entry in self.injections:
            events.append(entry)
        for entry in self.operations:
            events.append({"kind": "operator", **entry})
        for entry in self.publishes:
            events.append({"kind": "publish", **entry})
        for entry in self.dropped:
            events.append({"kind": "dropped-request", **entry})
        return sorted(events, key=lambda e: e.get("t_s", 0.0))


# ----------------------------------------------------------------------
# The synthetic multi-tenant workload (all seed-derived)
# ----------------------------------------------------------------------

def soak_schema() -> Schema:
    return Schema(
        [
            Domain("state", ["CA", "NY", "WA", "TX", "OR", "FL"]),
            integer_domain("hour", 12),
        ]
    )


def soak_relation(schema: Schema, rows: int, seed: int) -> Relation:
    """A skewed base relation (popular states, rush hours)."""
    rng = np.random.default_rng(seed)
    states = schema.domain("state").size
    hours = schema.domain("hour").size
    state_p = np.array([0.30, 0.25, 0.15, 0.12, 0.10, 0.08])[:states]
    state_p = state_p / state_p.sum()
    return Relation(
        schema,
        [
            rng.choice(states, size=rows, p=state_p),
            rng.integers(0, hours, rows),
        ],
    )


def soak_batch(schema: Schema, rows: int, seed: int, index: int) -> list:
    """Label rows for micro-batch ``index`` — a pure function of the
    seed, so the chaos run and the no-chaos replay ingest byte-identical
    data."""
    rng = random.Random(f"soak-batch:{seed}:{index}")
    states = schema.domain("state").labels
    hours = schema.domain("hour").labels
    weights = [5, 4, 3, 2, 2, 1][: len(states)]
    return [
        (rng.choices(states, weights=weights)[0], rng.choice(hours))
        for _ in range(rows)
    ]


def _fit_summary(relation: Relation, name: str):
    return (
        SummaryBuilder(relation)
        .pairs(("state", "hour"))
        .per_pair_budget(24)
        .iterations(30)
        .name(name)
        .fit()
    )


def measure_drift(summary, relation: Relation) -> float:
    """Mean relative error of ``summary`` vs exact ground truth over
    the scalar soak workload."""
    exact = Explorer.attach(ExactBackend(relation))
    approx = Explorer.attach(summary)
    errors = []
    for sql in SCALAR_QUERIES:
        truth = exact.sql(sql).scalar
        estimate = approx.sql(sql).scalar
        errors.append(abs(estimate - truth) / max(abs(truth), 1.0))
    return float(np.mean(errors))


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------

class _Scenario:
    """One live soak: owns the server, the threads, and the record."""

    NAME = "soak"

    def __init__(self, config: SoakConfig, store_root: str):
        self.config = config
        self.plan = FaultPlan.build(
            config.seed, config.duration_s, config.faults
        )
        self.injector = FaultInjector(self.plan)
        self.store = SummaryStore(store_root)
        self.schema = soak_schema()
        self.base_relation = soak_relation(
            self.schema, config.base_rows, config.seed
        )
        self.stop = threading.Event()
        self._record_lock = threading.Lock()
        # guarded-by: _record_lock
        self.requests: list = []
        self.probes: list = []
        self.publishes: list = []
        self.operations: list = []
        self.batches_applied = 0
        self.server: SummaryServer | None = None
        self.port = 0

    # -- clock -------------------------------------------------------------
    def now(self) -> float:
        return self.injector.elapsed_s

    # -- recording (one lock, many threads) --------------------------------
    def _record(self, bucket: list, entry: dict) -> None:
        with self._record_lock:
            bucket.append(entry)

    # -- reader tenants ----------------------------------------------------
    def _reader_loop(self, index: int) -> None:
        rng = random.Random(f"soak-reader:{self.config.seed}:{index}")
        client = ServeClient(
            port=self.port,
            timeout=min(self.config.request_deadline_s, 10.0),
            session=f"tenant-{index}",
            chaos=self.injector,
        )
        try:
            while not self.stop.is_set():
                sql = rng.choice(READER_QUERIES)
                self._one_request(client, index, sql, rng)
        finally:
            client.close()

    def _one_request(self, client, index, sql, rng) -> None:
        deadline = time.monotonic() + self.config.request_deadline_s
        busy = faults = attempt = 0
        last_error = ""
        while True:
            try:
                response = client.call("query", sql=sql, session=client.session)
            except ServerBusy as err:
                busy += 1
                last_error = str(err)
                delay = backoff_delay(attempt, err.retry_after, rng)
            except ServeError as err:
                if err.status == 400:
                    # Permanent: a malformed query can never succeed, so
                    # retrying would only disguise a real bug as load.
                    self._record(
                        self.requests,
                        {
                            "t_s": round(self.now(), 4),
                            "reader": index,
                            "sql": sql,
                            "outcome": "rejected",
                            "error": str(err),
                            "busy_retries": busy,
                            "fault_retries": faults,
                        },
                    )
                    return
                # Transport trouble (either side dropped the connection)
                # or a 500: reconnect and retry until the deadline.
                faults += 1
                last_error = str(err)
                client.close()
                delay = backoff_delay(attempt, 0.01, rng)
            else:
                result = response.get("result") or {}
                self._record(
                    self.requests,
                    {
                        "t_s": round(self.now(), 4),
                        "reader": index,
                        "sql": sql,
                        "outcome": "ok",
                        "version": response.get("version"),
                        "value": result.get("value"),
                        "busy_retries": busy,
                        "fault_retries": faults,
                    },
                )
                return
            attempt += 1
            if time.monotonic() + delay > deadline:
                self._record(
                    self.requests,
                    {
                        "t_s": round(self.now(), 4),
                        "reader": index,
                        "sql": sql,
                        "outcome": "dropped",
                        "error": last_error,
                        "busy_retries": busy,
                        "fault_retries": faults,
                    },
                )
                return
            time.sleep(delay)

    # -- the streaming ingester --------------------------------------------
    def _ingest_loop(self) -> None:
        pipeline = IngestPipeline.from_store(
            self.store, self.NAME, chaos=self.injector
        )
        index = 0
        while not self.stop.wait(self.config.ingest_every_s):
            rows = soak_batch(
                self.schema, self.config.batch_rows, self.config.seed, index
            )
            try:
                report = pipeline.append(rows, tag=f"soak-{index}")
            except InjectedFault:
                # The hook fires before any pipeline state mutates: the
                # same batch index is retried on the next tick.
                continue
            self._record(
                self.publishes,
                {
                    "t_s": round(self.now(), 4),
                    "version": report.published_version,
                    "parent": report.lineage["parent_version"],
                    "rows": report.rows_appended,
                },
            )
            index += 1
        self.batches_applied = index

    # -- the operator (scheduled reloads and rollbacks) --------------------
    def _operator_loop(self) -> None:
        client = ServeClient(port=self.port, timeout=5.0, session="operator")
        try:
            for event in self.plan.operations:
                delay = event.at_s - self.now()
                if delay > 0 and self.stop.wait(delay):
                    return
                if self.stop.is_set():
                    return
                # Record the *intent* time, captured before the reload
                # RPC is issued: the server-side flip can never precede
                # it, so a probe that observes the effect mid-RPC still
                # finds an operator event at an earlier t_s.
                t_intent = round(self.now(), 4)
                for _ in range(3):  # drop-connection chaos hits us too
                    try:
                        if event.action == "rollback":
                            current = client.ping()["version"]
                            if current <= 1:
                                break
                            target = current - 1
                            client.reload(version=target)
                            self._record(
                                self.operations,
                                {
                                    "t_s": t_intent,
                                    "action": "rollback",
                                    "version": target,
                                    "from_version": current,
                                },
                            )
                        else:
                            version = client.reload()
                            self._record(
                                self.operations,
                                {
                                    "t_s": t_intent,
                                    "action": "reload",
                                    "version": version,
                                },
                            )
                        break
                    except (ServeError, ReproError):
                        client.close()
                        time.sleep(0.05)
        finally:
            client.close()

    # -- the version probe -------------------------------------------------
    def _probe_loop(self) -> None:
        client = ServeClient(port=self.port, timeout=5.0, session="probe")
        try:
            while not self.stop.is_set():
                self._probe_once(client)
                self.stop.wait(self.config.probe_every_s)
        finally:
            client.close()

    def _probe_once(self, client) -> int | None:
        try:
            version = client.ping()["version"]
        except (ServeError, ReproError):
            client.close()  # dropped by chaos; reconnect next probe
            return None
        self._record(
            self.probes,
            {"t_s": round(self.now(), 4), "version": version},
        )
        return version

    # -- orchestration -----------------------------------------------------
    def run(self) -> SoakResult:
        config = self.config
        summary = _fit_summary(self.base_relation, self.NAME)
        self.store.save(summary, self.NAME, tag="base")

        server_config = ServeConfig(
            host="127.0.0.1",
            port=0,
            watch_interval=config.watch_interval,
            max_queue=max(8 * config.readers, 32),
        )
        self.server = SummaryServer(
            store=self.store,
            name=self.NAME,
            config=server_config,
            chaos=self.injector,
        )
        thread = ServerThread(self.server)
        with thread as running:
            self.port = running.port
            self.injector.start()
            workers = [
                threading.Thread(
                    target=self._reader_loop,
                    args=(index,),
                    name=f"soak-reader-{index}",
                    daemon=True,
                )
                for index in range(config.readers)
            ]
            workers.append(
                threading.Thread(
                    target=self._ingest_loop, name="soak-ingest", daemon=True
                )
            )
            workers.append(
                threading.Thread(
                    target=self._operator_loop,
                    name="soak-operator",
                    daemon=True,
                )
            )
            workers.append(
                threading.Thread(
                    target=self._probe_loop, name="soak-probe", daemon=True
                )
            )
            for worker in workers:
                worker.start()
            time.sleep(config.duration_s)
            # Drain: stop injecting first so every in-flight retry loop
            # converges, then stop the traffic.
            self.injector.disable()
            self.stop.set()
            join_deadline = config.request_deadline_s + 10.0
            for worker in workers:
                worker.join(timeout=join_deadline)
            self._drain_tail()
            server_stats = self.server.stats()

        return self._finalize(server_stats)

    def _drain_tail(self) -> None:
        """Give the watcher its bound to surface the final publish, so
        the staleness check is fair to versions published at the end."""
        if not self.publishes:
            return
        final = self.publishes[-1]
        bound = self.config.staleness_bound_s
        if any(
            op["action"] == "rollback"
            and final["t_s"] <= op["t_s"] <= final["t_s"] + bound
            for op in self.operations
        ):
            return  # rollback-obscured; the invariant exempts it too
        client = ServeClient(port=self.port, timeout=5.0, session="probe")
        try:
            deadline = time.monotonic() + bound
            while time.monotonic() < deadline:
                version = self._probe_once(client)
                if version is not None and version >= final["version"]:
                    return
                time.sleep(self.config.probe_every_s)
        finally:
            client.close()

    def _finalize(self, server_stats: dict) -> SoakResult:
        # Final chaos-run model + ground truth over what was ingested.
        record, final_summary = self.store.load_with_record(self.NAME)
        applied = max(
            self.batches_applied, record.version - 1
        )  # versions 2..k+1 are batches 0..k-1
        batches = [
            soak_batch(
                self.schema, self.config.batch_rows, self.config.seed, index
            )
            for index in range(applied)
        ]
        replay = IngestPipeline(self.store.load(self.NAME, version=1))
        for rows in batches:
            replay.append(rows)
        replay_summary = replay.summary
        # Soak batches never grow a domain: the ground truth is one
        # concatenation over the base schema.
        combined = Relation.concat(
            [
                self.base_relation,
                AppendBatch.from_rows(
                    self.schema, [row for rows in batches for row in rows]
                ).relation,
            ]
        )
        error_drift = measure_drift(final_summary, combined)
        baseline_drift = measure_drift(replay_summary, combined)
        return SoakResult(
            config=self.config,
            plan=self.plan,
            requests=self.requests,
            probes=self.probes,
            publishes=self.publishes,
            operations=self.operations,
            injections=self.injector.events(),
            server_stats=server_stats,
            error_drift=error_drift,
            baseline_drift=baseline_drift,
            staleness_bound_s=self.config.staleness_bound_s,
            duration_s=self.config.duration_s,
        )


def run_soak(config: SoakConfig | None = None) -> SoakResult:
    """Run one seeded soak scenario end to end; returns the record.

    Check it with :func:`~repro.chaos.invariants.check_invariants` —
    running and judging are separate so tests can audit synthetic
    records and benchmarks can emit metrics before asserting.
    """
    config = (config or SoakConfig()).validated()
    if config.store_dir is not None:
        return _Scenario(config, config.store_dir).run()
    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        return _Scenario(config, tmp).run()


__all__ = [
    "READER_QUERIES",
    "SCALAR_QUERIES",
    "SoakConfig",
    "SoakResult",
    "measure_drift",
    "run_soak",
    "soak_batch",
    "soak_relation",
    "soak_schema",
]
