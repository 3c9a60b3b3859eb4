"""Multi-worker serving tier smoke: kill a worker, drop nothing.

``test_cluster_smoke`` is the CI gate (``make cluster-smoke``): boot a
frontend + 2 workers (2 owners per shard) over an 8-shard summary, fire
100 concurrent requests with a worker killed mid-run, and assert zero
dropped requests and a respawned worker.  That is what the tier is for
— failure isolation — and all this file measures.

It used to carry a 1-vs-4-worker "≥ 2x throughput" curve as well; that
gate was earned against a configurable per-shard ``sleep`` in the
serving path, not against evaluation work, and was deleted together
with the sleep.  What the tier costs and returns on real work is
``bench_e2e``'s ``cluster_cold`` workload set against ``serve_cold``
(docs/serving.md has the numbers).

Results append to ``BENCH_cluster.json`` via the shared emitter and
gate through ``tools/check_bench.py`` baselines.
"""

import threading
import time

import numpy as np

from benchmarks._emit import BenchReport
from repro.api import SummaryBuilder
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.serve import ClusterCoordinator, ServeConfig, ServerThread, run_load

REPORT = BenchReport("cluster")

NUM_SHARDS = 8

#: Cross-shard workload: every query touches most or all live shards,
#: so the killed worker's shards are in nearly every request.
WORKLOAD = [
    "SELECT COUNT(*) FROM R",
    "SELECT COUNT(*) FROM R WHERE state = 'CA'",
    "SELECT COUNT(*) FROM R WHERE hour >= 8",
    "SELECT COUNT(*) FROM R WHERE hour BETWEEN 4 AND 27",
    "SELECT SUM(hour) FROM R WHERE state = 'NY'",
    "SELECT AVG(hour) FROM R WHERE state IN ('CA', 'WA')",
    "SELECT state, COUNT(*) FROM R GROUP BY state ORDER BY cnt DESC",
    "SELECT COUNT(*) FROM R WHERE state != 'NY' AND hour <= 23",
]


def _summary():
    schema = Schema(
        [Domain("state", ["CA", "NY", "WA"]), integer_domain("hour", 32)]
    )
    rng = np.random.default_rng(11)
    relation = Relation(
        schema,
        [
            rng.choice(3, size=800, p=[0.5, 0.3, 0.2]),
            rng.integers(0, 32, 800),
        ],
    )
    return (
        SummaryBuilder(relation)
        .shards(NUM_SHARDS, by="hour", workers=1)
        .pairs(("state", "hour"))
        .per_pair_budget(4)
        .iterations(40)
        .name("cluster-bench")
        .fit()
    )


def _config() -> ServeConfig:
    # The cache is off so that every request reaches the workers: the
    # kill must hit live fan-out traffic, not cache hits.
    return ServeConfig(
        port=0,
        cache_size=0,
        max_queue=512,
        max_inflight_per_client=32,
    )


def test_cluster_smoke():
    """CI gate: frontend + 2 workers, 100 concurrent requests, one
    worker killed mid-run — zero dropped requests, worker respawned."""
    summary = _summary()
    coordinator = ClusterCoordinator(
        summary,
        workers=2,
        replicas=2,
        config=_config(),
    )
    with ServerThread(coordinator):
        served_before = coordinator.requests
        outcome = {}

        def drive():
            outcome["report"] = run_load(
                coordinator.host,
                coordinator.port,
                WORKLOAD,
                clients=20,
                requests_per_client=5,
                timeout=300.0,
            )

        loader = threading.Thread(target=drive, daemon=True)
        loader.start()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if coordinator.requests - served_before >= 10:
                break
            time.sleep(0.002)
        assert coordinator.requests - served_before >= 10, "load never started"
        killed = coordinator.kill_worker()
        loader.join(timeout=300)
        assert not loader.is_alive(), "load run hung after the worker kill"
        report = outcome["report"]

        deadline = time.monotonic() + 60
        respawned = False
        while time.monotonic() < deadline:
            stats = coordinator.stats()["cluster"]
            if stats["live"] == 2 and stats["respawns"] >= 1:
                respawned = True
                break
            time.sleep(0.2)

    print(f"\nsmoke (worker {killed} killed mid-run): {report.describe()}")
    REPORT.record(
        {
            "smoke_clients": 20,
            "smoke_requests": report.requests,
            "smoke_errors": report.errors,
            "smoke_qps": round(report.qps, 1),
            "smoke_respawned": int(respawned),
        },
        thresholds=[
            ("smoke_errors", "==", 0),
            ("smoke_requests", ">=", 100),
            ("smoke_respawned", "==", 1),
        ],
    )
    assert report.errors == 0, f"{report.errors} dropped requests"
    assert report.requests == 100
    assert respawned, "killed worker was not respawned within 60s"
