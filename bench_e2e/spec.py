"""The names every later performance issue must use.

Workloads, end-to-end metrics and per-layer metrics are defined here
once; ``BENCHMARK.json`` at the repo root carries the same names for
the PR driver (``tests/test_spec.py`` keeps the two in step).
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = {
    "build_flights": (
        "Build path only (stats, polynomial compile, solver, sharded fit, "
        "store save/load of four Fig. 4 models); no query layer does work."
    ),
    "explore_cold": (
        "The paper's workload: distinct queries one at a time through "
        "Explorer.sql on M1, every cache missed; carries the accuracy metrics."
    ),
    "serve_hot": (
        "12-statement dashboard mix replayed on 2 connections: >=99% result-"
        "cache hits, so wire, client, cache and admission are the whole cost."
    ),
    "serve_cold": (
        "Distinct queries sent once each on 2 connections: every cache is "
        "missed, so arena, sharding, plan and the coalescing window dominate."
    ),
    "cluster_cold": (
        "The identical cold stream against serve --workers 2: adds fan-out, "
        "partial_batch, per-worker evaluation and merge to serve_cold."
    ),
    "ingest_live": (
        "Appends, publishes and reloads beside hot reads on a store-backed "
        "server: warm solver, store publish and arena rebuild under traffic."
    ),
}

ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str            # "lower" | "higher"
    bound: float | None    # share of the reference median; None = no bound
    workloads: tuple = ALL  # where the metric is native
    exact: bool = False    # a function of the seed: must repeat exactly
    moves: str = ""        # per-layer: the end-to-end metric it should move


#: The 14 end-to-end metrics, measured with tracing off.  ``workloads``
#: lists where the issue defines the metric; the PR driver needs every
#: metric on every workload, so ``DRIVER_END_TO_END`` below is the
#: subset with a native reading everywhere (see README, "Two readers").
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("build_s", "s", "lower", 0.25),
    Metric("summary_bytes", "B", "lower", 0.01, exact=True),
    Metric("solver_residual", "ratio", "lower", 0.02, exact=True),
    Metric("query_p50_ms", "ms", "lower", 0.25),
    Metric("query_p95_ms", "ms", "lower", 0.25),
    Metric("queries_per_s", "1/s", "higher", 0.25),
    Metric("cpu_ms_per_query", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("mean_rel_error", "ratio", "lower", 0.02, exact=True),
    Metric("f_measure", "ratio", "higher", 0.011, exact=True),
    Metric("append_s", "s", "lower", 0.25, ("ingest_live",)),
    Metric("reload_s", "s", "lower", 0.25, ("ingest_live",)),
    Metric("failed_share", "ratio", "lower", 0.0),
]

#: Not in the driver's list: ``append_s``/``reload_s`` exist on one
#: workload only, and ``failed_share`` is 0 on a healthy run (the driver
#: reads failures from ``attempted``/``failed`` instead).
DRIVER_END_TO_END = [
    m for m in END_TO_END
    if m.name not in ("append_s", "reload_s", "failed_share")
]


def _layer(name, unit, moves, better="lower", exact=False):
    return Metric(name, unit, better, None, ALL, exact, moves)


PER_LAYER = [
    _layer("datasets.generate_s", "s", "setup_s@all"),
    _layer("stats.select_s", "s", "build_s"),
    _layer("stats.statistics", "count", "summary_bytes, mean_rel_error", exact=True),
    _layer("core.polynomial.compile_s", "s", "build_s"),
    _layer("core.polynomial.terms", "count", "query_p50_ms@explore_cold", exact=True),
    _layer("core.polynomial.evaluate_b1_us", "us",
           "query_p50_ms@explore_cold, build_s, cluster_cold; not serve_hot/serve_cold"),
    _layer("core.polynomial.evaluate_b64_us_per_query", "us", "build_s"),
    _layer("core.polynomial.ns_per_term", "ns", "query_p50_ms@explore_cold"),
    _layer("core.solver.solve_s", "s", "build_s; no query workload"),
    _layer("core.solver.iterations", "count", "build_s", exact=True),
    _layer("core.solver.ms_per_iteration", "ms", "build_s"),
    _layer("core.solver.final_error", "ratio", "solver_residual", exact=True),
    _layer("core.solver.warm_solve_s", "s", "append_s@ingest_live"),
    _layer("core.solver.warm_iterations", "count", "append_s@ingest_live", exact=True),
    _layer("core.inference.estimate_us", "us",
           "query_p50_ms, queries_per_s@explore_cold (and cluster_cold today)"),
    _layer("core.inference.group_by_us", "us", "query_p95_ms@explore_cold"),
    _layer("core.inference.sum_us", "us", "query_p95_ms@explore_cold"),
    _layer("core.inference.ci95_coverage", "ratio", "calibration (ROADMAP item 4)",
           "higher", exact=True),
    _layer("core.sharding.partition_s", "s", "build_s"),
    _layer("core.sharding.fit_s", "s", "build_s, setup_s@serve workloads"),
    _layer("core.sharding.live_shards_us", "us", "query_p50_ms@serve_cold"),
    _layer("core.sharding.pruned_share", "ratio", "query_p50_ms@serve_cold",
           "higher", exact=True),
    _layer("core.sharding.estimate_us", "us", "query_p50_ms@serve_cold"),
    _layer("core.arena.build_s", "s", "setup_s@serve workloads, reload_s@ingest_live"),
    _layer("core.arena.terms", "count", "cpu_ms_per_query@serve_cold", exact=True),
    _layer("core.arena.estimate_b1_us", "us",
           "query_p50_ms, cpu_ms_per_query@serve_cold; not explore_cold/serve_hot/cluster_cold"),
    _layer("core.arena.estimate_b64_us_per_query", "us", "queries_per_s@serve_cold"),
    _layer("core.arena.group_by_us", "us", "query_p95_ms@serve_cold"),
    _layer("core.arena.sum_us", "us", "query_p95_ms@serve_cold"),
    _layer("core.arena.mask_cache_hit_rate", "ratio", "none expected on cold streams", "higher"),
    _layer("query.parse_us", "us", "query_p50_ms@explore_cold; not serve_hot (AST LRU)"),
    _layer("plan.normalize_us", "us", "query_p50_ms@explore_cold"),
    _layer("plan.route_us", "us", "query_p50_ms@explore_cold"),
    _layer("plan.execute_us", "us", "query_p50_ms@explore_cold (self = execute - kernel)"),
    _layer("plan.execute_many_b64_us_per_query", "us", "queries_per_s@serve_cold"),
    _layer("api.explorer.miss_us", "us", "query_p50_ms@explore_cold"),
    _layer("api.explorer.overhead_us", "us", "query_p50_ms@explore_cold"),
    _layer("api.explorer.hit_us", "us", "query_p50_ms, cpu_ms_per_query@serve_hot"),
    _layer("api.explorer.variant_hit_us", "us", "query_p50_ms@serve_hot"),
    _layer("api.store.save_s", "s", "build_s, setup_s"),
    _layer("api.store.load_s", "s", "build_s, setup_s, reload_s"),
    _layer("api.store.bytes", "B", "summary_bytes", exact=True),
    _layer("api.store.bytes_per_row", "B", "summary_bytes", exact=True),
    _layer("api.store.publish_s", "s", "append_s@ingest_live (flock'd JSON manifest)"),
    _layer("baselines.exact_us", "us", "context for query_p50_ms@explore_cold"),
    _layer("baselines.sample_us", "us", "context: paper says faster than sampling"),
    _layer("baselines.sample_rel_error", "ratio", "context for mean_rel_error", exact=True),
    _layer("ingest.route_us_per_row", "us", "append_s"),
    _layer("ingest.append_s", "s", "append_s@ingest_live"),
    _layer("ingest.append_all_shards_s", "s", "append_s"),
    _layer("ingest.refit_share", "ratio", "append_s", exact=True),
    _layer("ingest.read_p95_ms_during_append", "ms", "query_p95_ms@ingest_live vs append_s"),
    _layer("serve.wire.encode_request_us", "us", "query_p50_ms, cpu_ms_per_query@serve_hot"),
    _layer("serve.wire.decode_scalar_us", "us", "query_p50_ms@serve_hot"),
    _layer("serve.wire.decode_rows_us", "us", "query_p95_ms@serve_hot"),
    _layer("serve.wire.json_encode_us", "us", "binary-vs-JSON anomaly"),
    _layer("serve.wire.reply_bytes_scalar", "B", "query_p50_ms@serve_hot", exact=True),
    _layer("serve.wire.reply_bytes_rows", "B", "query_p95_ms@serve_hot", exact=True),
    _layer("serve.client.ping_rtt_us_binary", "us", "query_p50_ms@serve_hot"),
    _layer("serve.client.ping_rtt_us_json", "us", "binary-vs-JSON anomaly"),
    _layer("serve.client.hot_rtt_us_binary", "us", "query_p50_ms@serve_hot"),
    _layer("serve.client.hot_rtt_us_json", "us", "binary-vs-JSON anomaly"),
    _layer("serve.client.batch16_us_per_query", "us", "pipelined ceiling"),
    _layer("serve.client.retries", "count", "failed_share", exact=True),
    _layer("serve.server.boot_s", "s", "setup_s"),
    _layer("serve.server.reload_s", "s", "reload_s@ingest_live"),
    _layer("serve.server.request_us", "us", "query_p50_ms@serve workloads"),
    _layer("serve.server.stage_parse_us", "us", "query_p50_ms@serve_cold"),
    _layer("serve.server.stage_canonicalize_us", "us", "query_p50_ms@serve_cold"),
    _layer("serve.server.stage_route_us", "us", "query_p50_ms@serve_cold"),
    _layer("serve.server.stage_cache_lookup_us", "us", "query_p50_ms@serve_hot"),
    _layer("serve.server.stage_coalesce_wait_us", "us", "floor of query_p50_ms@serve_cold"),
    _layer("serve.server.stage_evaluate_us", "us", "query_p50_ms@serve_cold"),
    _layer("serve.server.stage_encode_us", "us", "query_p50_ms@serve_hot"),
    _layer("serve.server.wire_gap_us", "us", "query_p50_ms@serve_hot"),
    _layer("serve.cache.hit_rate", "ratio", "workload identity: ~1 hot, ~0 cold", "higher"),
    _layer("serve.cache.evictions", "count", "query_p50_ms@serve_cold"),
    _layer("serve.coalescer.batch_mean", "ratio", "queries_per_s@serve_cold", "higher"),
    _layer("serve.coalescer.coalesced_share", "ratio", "queries_per_s@serve_cold", "higher"),
    _layer("serve.admission.rejected_share", "ratio", "failed_share"),
    _layer("serve.cluster.boot_s", "s", "setup_s@cluster_cold"),
    _layer("serve.cluster.fanout_gap_us", "us",
           "query_p50_ms@cluster_cold - @serve_cold; not serve_cold"),
    _layer("serve.cluster.partial_us", "us", "query_p50_ms, cpu_ms_per_query@cluster_cold"),
    _layer("serve.cluster.merge_us", "us", "query_p50_ms@cluster_cold"),
    _layer("serve.cluster.worker_cpu_share", "ratio", "cpu_ms_per_query@cluster_cold", "higher"),
    _layer("serve.cluster.degraded_share", "ratio", "correctness: must stay 0", exact=True),
    _layer("obs.scrape_ms", "ms", "nothing (holds the <=5% budget honest)"),
    _layer("driver.p99_ms", "ms", "tail of query_p95_ms (does not repeat within a tenth)"),
    _layer("driver.max_ms", "ms", "tail of query_p95_ms"),
    _layer("driver.speed_factor", "ratio",
           "the machine, not the program: every timing is divided by it"),
    _layer("trace.coverage", "ratio", "must sit in 0.9-1.1", "higher"),
    _layer("trace.overhead_share", "ratio", "traced vs untraced queries_per_s"),
]

E2E = {m.name: m for m in END_TO_END}
