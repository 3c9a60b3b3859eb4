"""Serving-layer acceptance: the shared result cache vs no cache.

The serving subsystem's performance claim: on a **repeated-workload
mix** — the dashboard shape: 8+ concurrent clients, few distinct
questions, heavy on GROUP BY and SUM/AVG (the query shapes the model
engine cannot memoize internally) — the server with its shared TTL
result cache sustains **at least 1.3x** the throughput of the same
server with the cache off (``cache_size=0``), because within the TTL,
repeats across *all* clients and sessions are served from the cache
without touching the backend at all.  Both legs keep single-flight
evaluation (same-key requests in flight share one execution), which
already answers part of the uncached leg's repeats for free — so the
margin is the cache's alone: 1.5-2.2x (median 1.86x) over six runs
on a 2-core box.

Results append to ``BENCH_serve.json`` (p50/p95 latency, QPS, cache
hit rate for both legs) via the shared emitter, giving the repo a
perf trajectory.  ``test_serve_smoke`` is the CI gate: boot on a tiny
summary, fire 50 concurrent requests, assert zero errors and a warm
cache.

Scale via ``REPRO_SCALE`` (``paper`` default, ``small`` for CI).
"""

import numpy as np

from benchmarks._emit import BenchReport
from repro.api import SummaryBuilder
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.experiments.configs import active_scale
from repro.obs import histogram_quantile, histogram_stats
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerThread,
    SummaryServer,
    run_load,
)

REPORT = BenchReport("serve")

CLIENTS = 8

#: The repeated-workload mix: scalar counts (with syntactic variants
#: that must share one canonical key), model-side GROUP BYs, and
#: SUM/AVG aggregates — every shape the serving paper-pitch covers.
WORKLOAD = [
    "SELECT COUNT(*) FROM R WHERE origin_state = 'CA'",
    "SELECT COUNT(*) FROM R WHERE fl_date BETWEEN 40 AND 90",
    "SELECT COUNT(*) FROM R WHERE fl_date >= 40 AND fl_date <= 90",
    "SELECT COUNT(*) FROM R GROUP BY origin_state",
    "SELECT COUNT(*) FROM R WHERE fl_date >= 100 GROUP BY dest_state",
    "SELECT SUM(distance) FROM R WHERE origin_state = 'CA'",
    "SELECT AVG(distance) FROM R WHERE dest_state = 'NY'",
    "SELECT COUNT(*) FROM R GROUP BY dest_state ORDER BY cnt DESC LIMIT 5",
    "SELECT SUM(distance) FROM R WHERE dest_state = 'TX'",
    "SELECT COUNT(*) FROM R WHERE origin_state = 'WA' AND fl_date >= 60",
]


def _drive(summary, config: ServeConfig, requests_per_client: int):
    server = SummaryServer(summary, config=config)
    with ServerThread(server):
        return run_load(
            server.host,
            server.port,
            WORKLOAD,
            clients=CLIENTS,
            requests_per_client=requests_per_client,
        )


def test_shared_cache_throughput_speedup(store):
    """Acceptance: the shared result cache >= 1.3x serving without one."""
    summary = store.flights_summary("Ent1&2&3", "coarse")
    requests = 40 if active_scale().name == "small" else 80

    uncached = _drive(summary, ServeConfig(cache_size=0), requests)
    cached = _drive(summary, ServeConfig(), requests)

    speedup = cached.qps / uncached.qps
    print(f"\nno cache:     {uncached.describe()}")
    print(f"shared cache: {cached.describe()}")
    print(f"throughput speedup: {speedup:.2f}x")
    REPORT.record(
        {
            "clients": CLIENTS,
            "requests_per_client": requests,
            "workload_queries": len(WORKLOAD),
            "qps_shared_cache": round(cached.qps, 1),
            "qps_no_cache": round(uncached.qps, 1),
            "p50_ms_shared_cache": round(cached.p50_ms, 3),
            "p95_ms_shared_cache": round(cached.p95_ms, 3),
            "p50_ms_no_cache": round(uncached.p50_ms, 3),
            "p95_ms_no_cache": round(uncached.p95_ms, 3),
            "cache_hit_rate": round(cached.cache_hit_rate, 4),
            "errors": cached.errors + uncached.errors,
            "speedup": round(speedup, 2),
        },
        thresholds=[
            ("speedup", ">=", 1.3),
            ("cache_hit_rate", ">", 0.0),
            ("errors", "==", 0),
        ],
    )
    assert uncached.errors == 0 and cached.errors == 0
    assert cached.cache_hit_rate > 0.5, (
        f"repeated workload should mostly hit the shared cache, got "
        f"{cached.cache_hit_rate:.0%}"
    )
    assert speedup >= 1.3, (
        f"shared-cache speedup {speedup:.2f}x < 1.3x "
        f"({cached.qps:.0f} vs {uncached.qps:.0f} q/s)"
    )


#: The traced serving stages, in pipeline order (encode is excluded
#: from the coverage ratio below: it happens after the dispatch window
#: that ``repro_request_seconds`` measures).
STAGES = (
    "queue",
    "parse",
    "canonicalize",
    "route",
    "cache_lookup",
    "coalesce_wait",
    "evaluate",
    "encode",
)


def _tiny_summary():
    schema = Schema(
        [Domain("state", ["CA", "NY", "WA"]), integer_domain("hour", 4)]
    )
    rng = np.random.default_rng(3)
    relation = Relation(
        schema,
        [rng.choice(3, size=400, p=[0.5, 0.3, 0.2]), rng.integers(0, 4, 400)],
    )
    return (
        SummaryBuilder(relation)
        .pairs(("state", "hour"))
        .per_pair_budget(4)
        .iterations(40)
        .name("serve-smoke")
        .fit()
    )


def test_stage_breakdown():
    """Per-stage latency attribution: the trace spans folded into
    ``repro_stage_seconds`` must account for the measured end-to-end
    time — otherwise a future regression could hide in untraced code.

    Runs with the result cache off so every request crosses every
    stage (plan → cache miss → evaluate); the coverage
    ratio compares per-stage totals to the dispatch-latency histogram
    over the same requests.
    """
    summary = _tiny_summary()
    workload = [
        "SELECT COUNT(*) FROM R WHERE state = 'CA'",
        "SELECT COUNT(*) FROM R WHERE hour BETWEEN 1 AND 2",
        "SELECT COUNT(*) FROM R GROUP BY state",
        "SELECT SUM(hour) FROM R WHERE state = 'NY'",
    ]
    server = SummaryServer(
        summary, config=ServeConfig(cache_size=0)
    )
    with ServerThread(server):
        report = run_load(
            server.host,
            server.port,
            workload,
            clients=4,
            requests_per_client=25,
        )
        with ServeClient(server.host, server.port) as client:
            snapshot = client.server_metrics()["snapshot"]

    e2e_sum, e2e_count, _ = histogram_stats(
        snapshot, "repro_request_seconds", {"op": "query"}
    )
    row = {
        "stage_requests": e2e_count,
        "stage_e2e_p50_ms": round(
            histogram_quantile(
                snapshot, "repro_request_seconds", 0.5, {"op": "query"}
            )
            * 1e3,
            3,
        ),
        "stage_e2e_mean_ms": round(e2e_sum / e2e_count * 1e3, 3),
    }
    attributed = 0.0
    for stage in STAGES:
        stage_sum, stage_count, _ = histogram_stats(
            snapshot, "repro_stage_seconds", {"stage": stage}
        )
        row[f"stage_{stage}_ms"] = round(
            stage_sum / max(stage_count, 1) * 1e3, 4
        )
        if stage != "encode":  # encode lands after the dispatch window
            attributed += stage_sum
    coverage = attributed / e2e_sum if e2e_sum else 0.0
    row["stage_coverage"] = round(coverage, 4)
    print(f"\nstage breakdown: {row}")
    REPORT.record(
        row,
        thresholds=[
            ("stage_coverage", ">=", 0.9),
            ("stage_coverage", "<=", 1.1),
        ],
    )
    assert report.errors == 0
    assert e2e_count == report.requests
    assert 0.9 <= coverage <= 1.1, (
        f"traced stages cover {coverage:.0%} of end-to-end dispatch time; "
        "the breakdown must sum to within 10% of what clients measured"
    )


def test_serve_smoke():
    """CI gate: tiny summary, 50 concurrent requests, zero errors,
    warm cache.  Independent of the experiment store so it boots in
    seconds on a cold runner."""
    summary = _tiny_summary()
    workload = [
        "SELECT COUNT(*) FROM R WHERE state = 'CA'",
        "SELECT COUNT(*) FROM R WHERE hour BETWEEN 1 AND 2",
        "SELECT COUNT(*) FROM R WHERE hour >= 1 AND hour <= 2",
        "SELECT COUNT(*) FROM R GROUP BY state",
        "SELECT SUM(hour) FROM R WHERE state = 'NY'",
    ]
    server = SummaryServer(summary, config=ServeConfig())
    with ServerThread(server):
        report = run_load(
            server.host,
            server.port,
            workload,
            clients=5,
            requests_per_client=10,
        )
    print(f"\nserve smoke: {report.describe()}")
    REPORT.record(
        {
            "smoke_requests": report.requests,
            "smoke_errors": report.errors,
            "smoke_qps": round(report.qps, 1),
            "smoke_cache_hit_rate": round(report.cache_hit_rate, 4),
        },
        thresholds=[
            ("smoke_errors", "==", 0),
            ("smoke_cache_hit_rate", ">", 0.0),
        ],
    )
    assert report.requests == 50
    assert report.errors == 0, f"{report.errors} errors during smoke load"
    assert report.cache_hit_rate > 0.0
