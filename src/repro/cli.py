"""Command-line interface.

EntropyDB as a tool: generate datasets, fit summaries, query them, and
re-run the paper's experiments, all from the shell.  Models are
addressed either by bare file prefix (``--model``) or by name inside a
versioned summary store (``--store`` + ``--name``).

::

    python -m repro generate flights --rows 50000 --out data/flights
    python -m repro build --data data/flights --pairs fl_time:distance \\
        --budget 300 --store models --name flights --tag first
    python -m repro build --data data/flights --pairs fl_time:distance \\
        --budget 300 --shards 4 --shard-by origin_state --store models \\
        --name flights-sharded
    python -m repro query --store models --name flights \\
        --sql "SELECT COUNT(*) FROM R WHERE distance >= 1000"
    python -m repro query --store models --name flights --file queries.sql
    cat queries.sql | python -m repro query --model models/flights --file -
    python -m repro query --store models --name flights --explain \\
        --sql "SELECT COUNT(*) FROM R WHERE distance BETWEEN 500 AND 900"
    python -m repro info --store models --name flights
    python -m repro ingest --store models --name flights --batch data/new_rows
    python -m repro store list --dir models
    python -m repro serve --store models --name flights --port 9042 --watch 2
    python -m repro ping --port 9042
    python -m repro bench-serve --store models --name flights --clients 8
    python -m repro soak --duration 30 --seed 7 --faults all
    python -m repro experiment fig5 --scale small
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.api.builder import SummaryBuilder
from repro.api.explorer import Explorer
from repro.api.store import SummaryStore
from repro.core.sharding import ShardedSummary, load_model
from repro.core.summary import EntropySummary
from repro.data.serialize import load_relation, save_relation
from repro.errors import ReproError


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EntropyDB: probabilistic database summaries (VLDB'17)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic dataset and save it"
    )
    generate.add_argument(
        "dataset", choices=["flights", "flights-fine", "particles"]
    )
    generate.add_argument("--rows", type=int, default=50_000)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True, help="output path prefix")

    def add_model_source(command, required_model_help):
        """``--model`` prefix or ``--store``/``--name`` addressing."""
        command.add_argument("--model", help=required_model_help)
        command.add_argument("--store", help="summary store directory")
        command.add_argument("--name", help="summary name inside the store")
        command.add_argument(
            "--version", type=int, help="store version (default: latest)"
        )
        command.add_argument("--tag", help="store tag (default: latest)")

    build = commands.add_parser("build", help="fit a summary from saved data")
    build.add_argument("--data", required=True, help="relation path prefix")
    build.add_argument(
        "--pairs",
        default="",
        help="comma-separated 2D pairs as attrA:attrB (empty = 1D only)",
    )
    build.add_argument("--budget", type=int, default=200, help="buckets per pair")
    build.add_argument(
        "--heuristic", choices=["composite", "large", "zero"], default="composite"
    )
    build.add_argument("--iterations", type=int, default=30)
    build.add_argument(
        "--shards",
        type=int,
        default=1,
        help="fit this many per-shard models instead of one (default 1)",
    )
    build.add_argument(
        "--shard-by",
        help="partition rows by this attribute's value ranges "
        "(default: round-robin)",
    )
    build.add_argument(
        "--workers",
        type=int,
        help="worker processes for the sharded build "
        "(default: one per shard up to the core count)",
    )
    build.add_argument("--out", help="model path prefix")
    build.add_argument("--store", help="save into this summary store instead")
    build.add_argument("--name", help="summary name inside the store")
    build.add_argument("--tag", help="store tag for the saved version")

    query = commands.add_parser("query", help="run SQL against a saved model")
    add_model_source(query, "model path prefix")
    query.add_argument("--sql", help="one SQL query to run")
    query.add_argument(
        "--file",
        help="batch mode: file of SQL queries, one per line ('-' = stdin); "
        "the whole batch runs through the planner's batched executor and "
        "prints one result per line",
    )
    query.add_argument(
        "--rounded", action="store_true", help="round estimates the paper's way"
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print each query's plan (normalize → route → execute) "
        "instead of executing it",
    )

    info = commands.add_parser("info", help="describe a saved model")
    add_model_source(info, "model path prefix")

    ingest = commands.add_parser(
        "ingest",
        help="append a batch of rows and delta-refresh a stored summary",
    )
    ingest.add_argument("--store", required=True, help="summary store directory")
    ingest.add_argument("--name", required=True, help="summary name inside the store")
    ingest.add_argument(
        "--batch",
        required=True,
        help="relation prefix of the rows to append (labels are re-indexed; "
        "unseen labels grow the domains)",
    )
    ingest.add_argument(
        "--version", type=int, help="refresh from this version (default: latest)"
    )
    ingest.add_argument("--tag", help="store tag for the published version")
    ingest.add_argument(
        "--iterations",
        type=int,
        default=30,
        help="solver sweep cap for the delta refits (warm starts usually "
        "converge well inside it; default 30)",
    )

    def add_serve_tuning(command):
        """The serving-layer knobs shared by serve and bench-serve."""
        command.add_argument(
            "--max-queue",
            type=int,
            default=64,
            help="admitted-but-unfinished request bound (default 64)",
        )
        command.add_argument(
            "--max-inflight",
            type=int,
            default=16,
            help="per-client in-flight request bound (default 16)",
        )
        command.add_argument(
            "--cache-size",
            type=int,
            default=2048,
            help="shared result-cache entries (0 disables; default 2048)",
        )
        command.add_argument(
            "--cache-ttl",
            type=float,
            default=60.0,
            help="result time-to-live in seconds (default 60)",
        )
        command.add_argument(
            "--rounded",
            action="store_true",
            help="round estimates the paper's way",
        )
        command.add_argument(
            "--protocol",
            choices=("binary", "json"),
            default="binary",
            help="wire protocol: length-prefixed binary (default) or "
            "line-delimited JSON for debugging; the server always "
            "answers JSON clients either way",
        )

    serve = commands.add_parser(
        "serve",
        help="run the concurrent query server over a saved model",
    )
    add_model_source(serve, "model path prefix (no hot reload; prefer --store)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=9042,
        help="listening port (0 picks an ephemeral one; default 9042)",
    )
    serve.add_argument(
        "--watch",
        type=float,
        metavar="SECONDS",
        help="poll the store at this interval and hot-reload when a newer "
        "version appears (e.g. one published by `repro ingest`); "
        "the interval is the serving-staleness bound",
    )
    serve.add_argument(
        "--trace-ring",
        type=int,
        default=256,
        help="finished request traces kept in memory for the metrics op "
        "(0 disables the ring; default 256)",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        metavar="MS",
        help="log every request slower than this many milliseconds "
        "(with its trace and plan explain; default: off)",
    )
    serve.add_argument(
        "--slow-query-log",
        metavar="PATH",
        help="also append slow-query entries to this JSONL file",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >1 serves a sharded model through the "
        "frontend + worker-pool tier, which survives a worker death "
        "(with --replicas 2, exactly) but is slower than one process — "
        "failure isolation, not throughput (default 1: single-process)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="owners per shard in the worker pool (>1 keeps answers "
        "exact while a worker is down; default 1)",
    )
    add_serve_tuning(serve)

    ping = commands.add_parser(
        "ping", help="health-check a running query server"
    )
    ping.add_argument("--host", default="127.0.0.1")
    ping.add_argument("--port", type=int, required=True)
    ping.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    metrics = commands.add_parser(
        "metrics",
        help="scrape a running server's metrics (Prometheus text format)",
    )
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument("--port", type=int, required=True)
    metrics.add_argument(
        "--json",
        action="store_true",
        help="print the structured snapshot instead of Prometheus text",
    )
    metrics.add_argument(
        "--traces",
        action="store_true",
        help="with --json: include the recent-trace ring",
    )
    metrics.add_argument(
        "--slow",
        action="store_true",
        help="with --json: include recent slow-query entries",
    )

    top = commands.add_parser(
        "top",
        help="live per-op / per-stage latency tables for a running server",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, required=True)
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default 2.0)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after this many refreshes (0 = until Ctrl-C)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (same as --iterations 1)",
    )

    bench_serve = commands.add_parser(
        "bench-serve",
        help="load-test the serving layer (in-process server + K clients)",
    )
    add_model_source(bench_serve, "model path prefix")
    bench_serve.add_argument(
        "--clients", type=int, default=8, help="concurrent clients (default 8)"
    )
    bench_serve.add_argument(
        "--requests",
        type=int,
        default=50,
        help="requests per client (default 50)",
    )
    bench_serve.add_argument(
        "--queries",
        help="file of workload SQL, one per line ('-' = stdin); "
        "default: a mix derived from the model's schema",
    )
    add_serve_tuning(bench_serve)
    bench_serve.add_argument(
        "--pipeline",
        type=int,
        default=1,
        help="statements per pipelined query_batch round trip "
        "(default 1 = one query per round trip)",
    )
    bench_serve.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    bench_serve.add_argument(
        "--out", help="also write the JSON report to this path"
    )

    store = commands.add_parser(
        "store", help="inspect a versioned summary store"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_list = store_commands.add_parser(
        "list", help="list every stored summary version"
    )
    store_list.add_argument("--dir", required=True, help="store directory")

    soak = commands.add_parser(
        "soak",
        help="run a seeded, fault-injected multi-tenant soak scenario "
        "and check its invariants (docs/testing.md)",
    )
    soak.add_argument(
        "--duration",
        type=float,
        default=30.0,
        help="traffic phase length in seconds (default 30)",
    )
    soak.add_argument(
        "--seed",
        type=int,
        default=0,
        help="scenario seed: fault schedule, ingest batches, and reader "
        "query choices all derive from it (default 0)",
    )
    soak.add_argument(
        "--readers", type=int, default=4, help="reader tenants (default 4)"
    )
    soak.add_argument(
        "--faults",
        default="all",
        help="comma-separated fault names (worker-kill, slow-backend, "
        "error-backend, drop-connection, client-drop, cluster-kill, "
        "watcher, reload, rollback), or 'all' / 'none' (default all)",
    )
    soak.add_argument(
        "--watch",
        type=float,
        default=0.2,
        help="store-watcher poll interval in seconds (default 0.2)",
    )
    soak.add_argument(
        "--ingest-every",
        type=float,
        default=0.5,
        help="streaming ingester cadence in seconds (default 0.5)",
    )
    soak.add_argument(
        "--batch-rows",
        type=int,
        default=40,
        help="rows per ingest micro-batch (default 40)",
    )
    soak.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    soak.add_argument(
        "--out", help="also write the full JSON report to this path"
    )
    soak.add_argument(
        "--events",
        help="write the scenario event log (injections, operator actions, "
        "publishes, dropped requests) to this path as JSON lines",
    )

    experiment = commands.add_parser(
        "experiment", help="run one of the paper's experiments"
    )
    experiment.add_argument(
        "name",
        choices=[
            "fig2", "fig3", "fig5", "fig6", "fig7", "fig8",
            "compression", "latency", "solver", "variance", "strategy",
        ],
    )
    experiment.add_argument(
        "--scale", choices=["paper", "medium", "small"], default=None
    )
    return parser


def _cmd_generate(args) -> int:
    if args.dataset in ("flights", "flights-fine"):
        from repro.datasets import generate_flights

        dataset = generate_flights(num_rows=args.rows, seed=args.seed)
        relation = dataset.fine if args.dataset == "flights-fine" else dataset.coarse
    else:
        from repro.datasets import generate_particles

        dataset = generate_particles(
            rows_per_snapshot=args.rows, seed=args.seed
        )
        relation = dataset.relation
    save_relation(relation, args.out)
    print(f"wrote {relation!r} to {args.out}.(schema.json|columns.npz)")
    return 0


def _parse_pairs(spec: str) -> list[tuple[str, str]]:
    pairs = []
    for chunk in filter(None, (part.strip() for part in spec.split(","))):
        if ":" not in chunk:
            raise ReproError(
                f"pair {chunk!r} must have the form attrA:attrB"
            )
        left, _, right = chunk.partition(":")
        pairs.append((left.strip(), right.strip()))
    return pairs


def _cmd_build(args) -> int:
    if not args.out and not args.store:
        raise ReproError("give --out PREFIX and/or --store DIR")
    relation = load_relation(args.data)
    pairs = _parse_pairs(args.pairs)
    name = args.name or (
        os.path.basename(args.out) if args.out else "summary"
    )
    builder = (
        SummaryBuilder(relation)
        .heuristic(args.heuristic)
        .iterations(args.iterations)
        .name(name)
    )
    if pairs:
        builder.pairs(*pairs).per_pair_budget(args.budget)
    if args.shard_by and args.shards < 2:
        raise ReproError("--shard-by needs --shards >= 2")
    if args.shards != 1:
        # Delegate validation too: --shards 0 must error, not silently
        # build an unsharded model.
        builder.shards(
            args.shards, by=args.shard_by, workers=args.workers
        )
    summary = builder.fit()
    report = summary.size_report()
    if isinstance(summary, ShardedSummary):
        print(
            f"built {summary!r}\n"
            f"  terms: {report['num_terms']} across {report['num_shards']} shards"
        )
    else:
        print(
            f"built {summary!r}\n"
            f"  solver: {summary.report!r}\n"
            f"  terms: {report['num_terms']} "
            f"(uncompressed {report['num_uncompressed_monomials']})"
        )
    if args.out:
        summary.save(args.out)
        if isinstance(summary, ShardedSummary):
            print(
                f"  saved to {args.out}.json + "
                f"{summary.num_shards} shard file pairs"
            )
        else:
            print(f"  saved to {args.out}.(json|npz)")
    if args.store:
        record = SummaryStore(args.store).save(summary, name, tag=args.tag)
        print(f"  stored as {record.describe()} in {args.store}")
    return 0


def _load_summary(args) -> "EntropySummary | ShardedSummary":
    """Resolve --model / --store addressing shared by query and info."""
    if bool(args.model) == bool(args.store):
        raise ReproError("give exactly one of --model PREFIX or --store DIR")
    if args.model:
        return load_model(args.model)
    if not args.name:
        raise ReproError("--store needs --name")
    return SummaryStore(args.store).load(
        args.name, version=args.version, tag=args.tag
    )


def _format_result(result) -> str:
    """One line per result: a number, or tab-joined label/count pairs
    separated by '; ' for grouped queries."""
    if result.is_scalar:
        return f"{result.scalar:.3f}"
    return "; ".join(
        "\t".join([*(str(label) for label in row.labels), f"{row.count:.3f}"])
        for row in result.rows
    )


def _read_batch(source: str) -> list[str]:
    """SQL queries from a file ('-' = stdin): one per line, blank lines
    and ``--`` comment lines skipped."""
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise ReproError(
                f"cannot read query file {source!r}: {error}"
            ) from error
    queries = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("--"):
            queries.append(line)
    if not queries:
        raise ReproError(f"no queries found in {source!r}")
    return queries


def _cmd_query(args) -> int:
    if bool(args.sql) == bool(args.file):
        raise ReproError("give exactly one of --sql QUERY or --file PATH")
    explorer = Explorer.attach(_load_summary(args), rounded=args.rounded)
    if args.sql:
        if args.explain:
            print(explorer.explain(args.sql))
            return 0
        result = explorer.sql(args.sql)
        if result.is_scalar:
            print(f"{result.scalar:.3f}")
        else:
            for row in result.rows:
                labels = "\t".join(str(label) for label in row.labels)
                print(f"{labels}\t{row.count:.3f}")
        return 0
    queries = _read_batch(args.file)
    if args.explain:
        for sql in queries:
            print(explorer.explain(sql))
        return 0
    # One batched pass: scalar counts of the batch share one vectorized
    # backend evaluation; one output line per input query, in order.
    for result in explorer.run_many(queries):
        print(_format_result(result))
    return 0


def _cmd_ingest(args) -> int:
    from repro.ingest import IngestPipeline

    if args.iterations < 1:
        raise ReproError(f"--iterations must be >= 1, got {args.iterations}")
    batch = load_relation(args.batch)
    pipeline = IngestPipeline.from_store(
        SummaryStore(args.store),
        args.name,
        version=args.version,
        max_iterations=args.iterations,
    )
    report = pipeline.append(batch, tag=args.tag)
    print(report.describe())
    if report.record is not None:
        print(f"  stored as {report.record.describe()} in {args.store}")
        print(
            "  live servers watching this store (repro serve --watch) "
            "pick the new version up automatically"
        )
    return 0


def _cmd_store(args) -> int:
    store = SummaryStore(args.dir)
    records = store.list()
    if not records:
        print(f"store {args.dir} is empty")
        return 0
    for record in records:
        print(record.describe())
    return 0


def _cmd_info(args) -> int:
    summary = _load_summary(args)
    report = summary.size_report()
    print(f"model:      {summary.name}")
    print(f"cardinality {summary.total}")
    print(f"schema:     {summary.schema!r}")
    if isinstance(summary, ShardedSummary):
        by = f" by {summary.shard_by}" if summary.shard_by else " (round-robin)"
        print(f"sharding:   {summary.num_shards} shards{by}")
        print(f"statistics: {summary.num_statistics} across shards")
        print(f"polynomial: {report['num_terms']} terms across shards")
        for index, shard in enumerate(summary.shards):
            print(f"  shard {index}: {shard!r}")
    else:
        print(
            f"statistics: {summary.statistic_set.num_one_dim} 1D + "
            f"{summary.statistic_set.num_multi_dim} multi-dim"
        )
        print(
            f"polynomial: {report['num_terms']} terms in "
            f"{report['num_components']} components "
            f"(uncompressed {report['num_uncompressed_monomials']})"
        )
    print(f"storage:    {report['total_bytes']} bytes in memory")
    return 0


def _serve_config(args, *, host: str | None = None, port: int | None = None):
    """Build a ServeConfig from the shared tuning flags (validation
    errors name the flag at fault, see ServeConfig.validated)."""
    from repro.serve import ServeConfig

    return ServeConfig(
        host=host if host is not None else args.host,
        port=port if port is not None else args.port,
        max_queue=args.max_queue,
        max_inflight_per_client=args.max_inflight,
        cache_size=args.cache_size,
        cache_ttl=args.cache_ttl,
        rounded=args.rounded,
        binary=getattr(args, "protocol", "binary") != "json",
        watch_interval=getattr(args, "watch", None),
        trace_ring=getattr(args, "trace_ring", 256),
        slow_query_ms=getattr(args, "slow_query_ms", None),
        slow_query_log=getattr(args, "slow_query_log", None),
    ).validated()


def _make_server(args, config):
    """A SummaryServer from --model or --store/--name addressing.

    Store addressing keeps the store attached, so ``SIGHUP`` and the
    ``reload`` op can hot-swap versions; ``--model`` serves a fixed
    in-memory summary.
    """
    from repro.serve import ClusterCoordinator, SummaryServer

    if bool(args.model) == bool(args.store):
        raise ReproError("give exactly one of --model PREFIX or --store DIR")
    workers = getattr(args, "workers", 1) or 1
    if workers > 1:
        kwargs = dict(
            workers=workers,
            replicas=getattr(args, "replicas", 1) or 1,
            config=config,
        )
        if args.model:
            return ClusterCoordinator(load_model(args.model), **kwargs)
        if not args.name:
            raise ReproError("--store needs --name")
        return ClusterCoordinator(
            store=args.store,
            name=args.name,
            version=args.version,
            tag=args.tag,
            **kwargs,
        )
    if args.model:
        return SummaryServer(load_model(args.model), config=config)
    if not args.name:
        raise ReproError("--store needs --name")
    return SummaryServer(
        store=args.store,
        name=args.name,
        version=args.version,
        tag=args.tag,
        config=config,
    )


def _cmd_serve(args) -> int:
    import asyncio

    config = _serve_config(args)
    server = _make_server(args, config)

    async def run():
        await server.start()
        workers = getattr(args, "workers", 1) or 1
        pool = f", {workers} workers" if workers > 1 else ""
        print(
            f"serving {server.label} on {server.host}:{server.port} "
            f"(version {server.version}{pool}, "
            f"max_queue={config.max_queue}); SIGHUP reloads, Ctrl-C stops",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def _cmd_ping(args) -> int:
    import json
    import time

    from repro.serve import ServeClient

    start = time.perf_counter()
    with ServeClient(args.host, args.port) as client:
        pong = client.ping()
    latency_ms = (time.perf_counter() - start) * 1e3
    if args.json:
        print(
            json.dumps(
                {
                    "ok": True,
                    "host": args.host,
                    "port": args.port,
                    "version": pong["version"],
                    "latency_ms": round(latency_ms, 3),
                }
            )
        )
    else:
        print(
            f"pong from {args.host}:{args.port} in {latency_ms:.2f} ms "
            f"(version {pong['version']})"
        )
    return 0


def _cmd_bench_serve(args) -> int:
    import json

    from repro.serve import ServerThread, run_load
    from repro.serve.loadgen import default_workload

    if args.clients < 1:
        raise ReproError(f"--clients must be >= 1, got {args.clients}")
    if args.requests < 1:
        raise ReproError(f"--requests must be >= 1, got {args.requests}")
    config = _serve_config(args, host="127.0.0.1", port=0)
    server = _make_server(args, config)
    workload = (
        _read_batch(args.queries)
        if args.queries
        else default_workload(server.schema)
    )
    with ServerThread(server) as running:
        report = run_load(
            running.host,
            running.port,
            workload,
            clients=args.clients,
            requests_per_client=args.requests,
            protocol=args.protocol,
            pipeline=args.pipeline,
        )
    document = {
        "name": "bench-serve",
        "summary": server.label,
        "protocol": args.protocol,
        "pipeline": args.pipeline,
        "workload_queries": len(workload),
        **report.to_metrics(),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(report.describe())
        if args.out:
            print(f"report written to {args.out}")
    return 1 if report.errors else 0


def _cmd_soak(args) -> int:
    import json

    from repro.chaos import SoakConfig, check_invariants, run_soak

    faults = tuple(
        part.strip() for part in args.faults.split(",") if part.strip()
    )
    config = SoakConfig(
        duration_s=args.duration,
        seed=args.seed,
        readers=args.readers,
        faults=faults or ("none",),
        watch_interval=args.watch,
        ingest_every_s=args.ingest_every,
        batch_rows=args.batch_rows,
    ).validated()
    if not args.json:
        print(
            f"soak: {config.duration_s:g}s, seed {config.seed}, "
            f"{config.readers} readers, faults [{', '.join(config.faults)}]",
            flush=True,
        )
    result = run_soak(config)
    report = check_invariants(result)
    metrics = result.to_metrics()
    # The event log and report land on disk *before* the exit code, so
    # a failing CI soak always uploads a diagnosable artifact.
    if args.events:
        with open(args.events, "w", encoding="utf-8") as handle:
            for event in result.event_log():
                handle.write(json.dumps(event, default=str) + "\n")
    document = {
        "config": {
            "duration_s": config.duration_s,
            "seed": config.seed,
            "readers": config.readers,
            "faults": list(config.faults),
            "watch_interval": config.watch_interval,
        },
        "metrics": metrics,
        "invariants": report.to_dict(),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(
            f"  {metrics['soak_requests']:.0f} requests "
            f"({metrics['soak_qps']:.0f} q/s), "
            f"{metrics['publishes']:.0f} publishes, "
            f"{metrics['faults_injected']:.0f} faults injected"
        )
        print(report.describe())
        if args.events:
            print(f"event log written to {args.events}")
        if args.out:
            print(f"report written to {args.out}")
    return 0 if report.ok else 1


def _cmd_experiment(args) -> int:
    if args.scale:
        os.environ["REPRO_SCALE"] = args.scale
    from repro import experiments

    runners = {
        "fig2": experiments.run_fig2,
        "fig3": experiments.run_fig3,
        "fig5": experiments.run_fig5,
        "fig6": experiments.run_fig6,
        "fig7": experiments.run_fig7,
        "fig8": experiments.run_fig8,
        "compression": experiments.run_compression,
        "latency": experiments.run_latency,
        "solver": experiments.run_solver_trace,
        "variance": experiments.run_variance,
        "strategy": experiments.run_strategy_ablation,
    }
    result = runners[args.name]()
    print(result.to_text())
    return 0


def _cmd_metrics(args) -> int:
    import json

    from repro.serve import ServeClient

    with ServeClient(args.host, args.port) as client:
        view = client.server_metrics(
            include_traces=args.traces, include_slow=args.slow
        )
    if args.json:
        payload = {"snapshot": view["snapshot"]}
        if args.traces:
            payload["traces"] = view.get("traces", [])
        if args.slow:
            payload["slow_queries"] = view.get("slow_queries", [])
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(view["prometheus"], end="")
    return 0


def _cmd_top(args) -> int:
    import time as _time

    from repro.obs import render_top
    from repro.serve import ServeClient

    iterations = 1 if args.once else max(int(args.iterations), 0)
    interval = max(float(args.interval), 0.1)
    previous = None
    shown = 0
    try:
        with ServeClient(args.host, args.port) as client:
            while True:
                snapshot = client.server_metrics()["snapshot"]
                text = render_top(
                    snapshot,
                    previous=previous,
                    interval_s=interval if previous is not None else None,
                )
                if shown:  # redraw in place after the first frame
                    print("\x1b[2J\x1b[H", end="")
                print(text, flush=True)
                previous = snapshot
                shown += 1
                if iterations and shown >= iterations:
                    return 0
                _time.sleep(interval)
    except KeyboardInterrupt:
        return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "build": _cmd_build,
    "query": _cmd_query,
    "info": _cmd_info,
    "ingest": _cmd_ingest,
    "store": _cmd_store,
    "serve": _cmd_serve,
    "ping": _cmd_ping,
    "metrics": _cmd_metrics,
    "top": _cmd_top,
    "bench-serve": _cmd_bench_serve,
    "soak": _cmd_soak,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that exited; the Unix-polite
        # response is silence.  Detach stdout so the interpreter's exit
        # flush does not raise a second time.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
