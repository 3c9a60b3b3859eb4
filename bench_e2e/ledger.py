"""The per-layer ledger: every layer timed from outside, by calling its
public functions on the run's own inputs.

These probes reach below the stable surface (``compute_partial``,
``ShardArena``, ``FrameDecoder``, ...), so each is guarded: if a later
PR removes or reshapes what a probe calls, the probe's metrics read
``None`` with reason ``probe_unavailable`` — the run never fails and no
end-to-end number changes.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time

import numpy as np

from repro.api import Explorer, SummaryStore
from repro.ingest import IngestPipeline

from bench_e2e import driver, inputs
from bench_e2e.driver import percentile
from bench_e2e.spec import PER_LAYER
from bench_e2e.trace import coverage
from bench_e2e.workloads import accuracy, stored_bytes

UNAVAILABLE = (ImportError, AttributeError, TypeError, KeyError)
STAGES = (
    "parse", "canonicalize", "route", "cache_lookup",
    "coalesce_wait", "evaluate", "encode",
)
SCALAR = ("heavy", "light", "null", "range")


def _us(seconds: float) -> float:
    return seconds * 1e6


def clock(call, *args):
    """``(seconds, result)`` of one call."""
    began = time.perf_counter()
    out = call(*args)
    return time.perf_counter() - began, out


def median_us(call, items) -> float:
    """Median microseconds of ``call(item)`` over ``items``."""
    return _us(statistics.median(clock(call, item)[0] for item in items))


def batched_us_per_item(call, items, size: int = 64) -> float:
    """Median over the full batches of ``size`` of ``call(batch)``, in
    microseconds per item."""
    batches = [items[i:i + size] for i in range(0, len(items) - size + 1, size)] or [items]
    return statistics.median(_us(clock(call, batch)[0]) / len(batch) for batch in batches)


# ----------------------------------------------------------------------
# Server-side numbers, read through the public ``stats``/``metrics`` ops
# ----------------------------------------------------------------------

class ServerObserver:
    """Deltas of the server's own counters over a stretch of traffic."""

    def __init__(self, server):
        self.server = server
        self.before = self._read()

    @classmethod
    def around(cls, fx):
        """An observer on the workload's own server, if it has one."""
        if not fx.servers:
            return None
        try:
            return cls(next(iter(fx.servers.values())))
        except UNAVAILABLE:
            return None

    def _read(self):
        with self.server.client() as client:
            return client.server_metrics()["snapshot"], client.stats()

    @staticmethod
    def _histogram(snapshot, family: str, **labels):
        total, count = 0.0, 0
        for sample in snapshot.get(family, {}).get("samples", ()):
            if all(sample["labels"].get(k) == v for k, v in labels.items()):
                total += sample["sum"]
                count += sample["count"]
        return total, count

    def _mean_us(self, before, after, family, **labels):
        s0, c0 = self._histogram(before, family, **labels)
        s1, c1 = self._histogram(after, family, **labels)
        return _us((s1 - s0) / (c1 - c0)) if c1 > c0 else 0.0

    def finish(self, client_mean_ms: float) -> dict:
        """The deltas since construction.  ``client_mean_ms`` is the
        callers' mean latency over the same traffic: the histograms give
        means, so the wire gap compares mean with mean."""
        try:
            (snap0, stats0), (snap1, stats1) = self.before, self._read()
            out = {
                "serve.server.request_us": self._mean_us(
                    snap0, snap1, "repro_request_seconds", op="query"
                )
            }
            for stage in STAGES:
                out[f"serve.server.stage_{stage}_us"] = self._mean_us(
                    snap0, snap1, "repro_stage_seconds", stage=stage
                )
            out["serve.server.wire_gap_us"] = (
                client_mean_ms * 1e3 - out["serve.server.request_us"]
            )
            delta = lambda part, key: stats1[part][key] - stats0[part][key]  # noqa: E731
            lookups = delta("cache", "hits") + delta("cache", "misses")
            out["serve.cache.hit_rate"] = (
                delta("cache", "hits") / lookups if lookups else 0.0
            )
            out["serve.cache.evictions"] = delta("cache", "evictions")
            submitted = delta("coalescer", "submitted")
            flushes = delta("coalescer", "flushes")
            out["serve.coalescer.batch_mean"] = submitted / flushes if flushes else 0.0
            out["serve.coalescer.coalesced_share"] = (
                delta("coalescer", "coalesced") / submitted if submitted else 0.0
            )
            rejected = delta("admission", "rejected_queue") + delta(
                "admission", "rejected_client"
            )
            admitted = delta("admission", "admitted")
            out["serve.admission.rejected_share"] = (
                rejected / (rejected + admitted) if rejected + admitted else 0.0
            )
            return out
        except UNAVAILABLE:
            return {}


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------

class Ledger:
    def __init__(self, fx, tracer):
        self.fx, self.tracer = fx, tracer
        self.values: dict = {}
        self.reasons: dict = {}
        self.sizes = fx.sizes
        self.data = fx.data
        self.sample = inputs.gen_queries(fx.seed, self.sizes.probe_queries, self.data)
        self.scalars = [q for q in self.sample if q.kind in SCALAR]
        self.mix = inputs.dashboard_mix(fx.seed, self.data)
        self.m1 = None          # set by build_m1 (or loaded as a fallback)
        #: What query_path() takes apart; explore_cold passes its stream.
        self.decomposed = self.sample
        self.cold_served: dict = {}

    def probe(self, names, call) -> None:
        """Run one guarded probe that yields the metrics ``names``."""
        try:
            with self.tracer.span(f"ledger.{call.__name__}"):
                found = call()
        except UNAVAILABLE as exc:
            found = {}
            reason = f"probe_unavailable ({type(exc).__name__}: {exc})"
        else:
            reason = "probe_unavailable (not measured)"
        for name in names:
            if found.get(name) is None:
                self.values[name] = None
                self.reasons[name] = reason
            else:
                self.values[name] = found[name]

    def model(self, name: str):
        if name not in self.fx.loaded:
            self.fx.build(name)
        return self.fx.loaded[name]

    # -- build path -------------------------------------------------------
    def build_m1(self) -> dict:
        """M1 built by hand through the layers the builder crosses."""
        from repro.core.polynomial import CompressedPolynomial
        from repro.core.solver import MirrorDescentSolver
        from repro.core.summary import EntropySummary
        from repro.stats.selection import build_statistic_set

        pair_ids, budget, _ = inputs.MODELS["M1"]
        budget = max(2, int(budget * self.sizes.budget_scale))
        tracer = self.tracer
        with tracer.span("build.M1.by_hand"):
            with tracer.span("stats.select"):
                select_s, stats = clock(
                    lambda: build_statistic_set(
                        self.data.relation,
                        pairs=[inputs.PAIRS[i] for i in pair_ids],
                        per_pair_budget=budget,
                    )
                )
            with tracer.span("core.polynomial.compile"):
                compile_s, polynomial = clock(CompressedPolynomial, stats)
            solver = MirrorDescentSolver(polynomial, max_iterations=inputs.ITERATIONS)
            with tracer.span("core.solver.solve"):
                solve_s, (params, report) = clock(solver.solve)
        self.m1 = EntropySummary(stats, polynomial, params, report, "M1")
        return {
            "stats.select_s": select_s,
            "stats.statistics": stats.num_statistics,
            "core.polynomial.compile_s": compile_s,
            "core.polynomial.terms": polynomial.num_terms,
            "core.solver.solve_s": solve_s,
            "core.solver.iterations": report.iterations,
            "core.solver.ms_per_iteration": solve_s * 1e3 / report.iterations,
            "core.solver.final_error": report.final_error,
        }

    def masks(self, model):
        """``(query, conjunction, masks)`` of the sampled scalar counts,
        as the planner hands them to the kernel."""
        explorer = Explorer.attach(model)
        engine = getattr(model, "engine", None) or model.shards[0].engine
        out = []
        for q in self.scalars:
            conjunction = explorer.plan(q.text).conjunction()
            out.append((q, conjunction, engine.masks_for(conjunction)))
        return out

    def polynomial(self) -> dict:
        m1 = self.m1
        polynomial, params = m1.polynomial, m1.params
        masks = [m for _, _, m in self.masks(m1)]
        b1 = median_us(lambda m: polynomial.evaluate_batch(params, [m]), masks)
        b64 = batched_us_per_item(lambda batch: polynomial.evaluate_batch(params, batch), masks)
        return {
            "core.polynomial.evaluate_b1_us": b1,
            "core.polynomial.evaluate_b64_us_per_query": b64,
            "core.polynomial.ns_per_term": b1 * 1e3 / polynomial.num_terms,
        }

    def inference(self) -> dict:
        m1, data = self.m1, self.data
        engine = m1.engine
        triples = self.masks(m1)
        engine.clear_cache()
        times, covered = [], 0
        for q, _, masks in triples:
            seconds, estimate = clock(engine.estimate_masks, masks)
            times.append(seconds)
            low, high = estimate.ci95
            covered += low <= data.oracle.count(q.where) <= high
        explorer = Explorer.attach(m1)
        schema = m1.schema
        groups = [q for q in self.sample if q.kind == "group"]
        sums = [q for q in self.sample if q.kind in ("sum", "avg")]
        weights = data.weights("distance")

        def group(q):
            plan = explorer.plan(q.text)
            return engine.group_by([schema.position(q.group_attr)], plan.conjunction_or_none())

        def total(q):
            plan = explorer.plan(q.text)
            return engine.sum_estimate(
                schema.position("distance"), weights, plan.conjunction_or_none()
            )

        plan_us = median_us(explorer.plan, [q.text for q in groups + sums])
        return {
            "core.inference.estimate_us": _us(statistics.median(times)),
            "core.inference.group_by_us": median_us(group, groups) - plan_us,
            "core.inference.sum_us": median_us(total, sums) - plan_us,
            "core.inference.ci95_coverage": covered / len(triples),
        }

    def warm_solve(self) -> dict:
        """Refit the last shard on a relation grown by 2 %."""
        m8, data = self.model("M8"), self.data
        low, high = m8.owned_ranges[-1]
        dates = data.columns[inputs.SHARD_BY]
        rows = np.flatnonzero((dates >= low) & (dates <= high))
        rng = np.random.default_rng([self.fx.seed, 0x3F])
        extra = rng.choice(rows, size=max(1, rows.size // 50), replace=True)
        grown = data.relation.sample_rows(np.concatenate([rows, extra]))
        shard = m8.shards[-1]
        with self.tracer.span("core.solver.warm_refit"):
            seconds, refit = clock(
                lambda: shard.refit(grown, max_iterations=inputs.ITERATIONS)
            )
        return {
            "core.solver.warm_solve_s": seconds,
            "core.solver.warm_iterations": refit.report.iterations,
        }

    def sharding(self) -> dict:
        from repro.core.sharding import partition_relation

        m8 = self.model("M8")
        partition_s, _ = clock(
            partition_relation, self.data.relation, inputs.NUM_SHARDS, inputs.SHARD_BY
        )
        conjunctions = [c for _, c, _ in self.masks(m8)]
        live = [len(m8.live_shards(c)) for c in conjunctions]
        m8.clear_cache()
        return {
            "core.sharding.partition_s": partition_s,
            "core.sharding.fit_s": statistics.median(self.fx.timings["fit.M8"]),
            "core.sharding.live_shards_us": median_us(m8.live_shards, conjunctions),
            "core.sharding.pruned_share": 1.0 - sum(live) / (len(live) * m8.num_shards),
            "core.sharding.estimate_us": median_us(m8.estimate, conjunctions),
        }

    def arena(self) -> dict:
        from repro.core.arena import ShardArena

        m8, data = self.model("M8"), self.data
        with self.tracer.span("core.arena.build"):
            build_s, arena = clock(ShardArena, m8)
        masks = [m for _, _, m in self.masks(m8)]
        b1 = median_us(lambda m: arena.estimate_masks_batch([m]), masks)
        arena.clear_cache()
        b64 = batched_us_per_item(arena.estimate_masks_batch, masks)
        explorer = Explorer.attach(m8)
        schema, weights = m8.schema, data.weights("distance")

        def base_masks(q):
            conjunction = explorer.plan(q.text).conjunction_or_none()
            return {} if conjunction is None else conjunction.attribute_masks()

        groups = [(q, base_masks(q)) for q in self.sample if q.kind == "group"]
        sums = [base_masks(q) for q in self.sample if q.kind in ("sum", "avg")]
        stats = m8.arena.stats()
        lookups = stats["cache_hits"] + stats["cache_misses"]
        return {
            "core.arena.build_s": build_s,
            "core.arena.terms": arena.num_terms,
            "core.arena.estimate_b1_us": b1,
            "core.arena.estimate_b64_us_per_query": b64,
            "core.arena.group_by_us": median_us(
                lambda item: arena.group_by([schema.position(item[0].group_attr)], item[1]),
                groups,
            ),
            "core.arena.sum_us": median_us(
                lambda m: arena.sum_estimate(schema.position("distance"), weights, m), sums
            ),
            "core.arena.mask_cache_hit_rate": (
                stats["cache_hits"] / lookups if lookups else 0.0
            ),
        }

    # -- query path -------------------------------------------------------
    def copies(self, count: int):
        """Fresh copies of M1 (through the store), so that one call's
        caches cannot answer for another's."""
        store = SummaryStore(self.fx.dir / "probe-m1")
        if not store.has("M1"):
            store.save(self.m1, "M1")
        return [store.load("M1") for _ in range(count)]

    def query_path(self) -> dict:
        """Each sampled query run once whole (``Explorer.sql``) and once
        taken apart by hand through the same public stages, on separate
        copies of the model, interleaved so both see the same machine."""
        from repro.query.parser import parse_query

        tracer, ns = self.tracer, time.perf_counter_ns
        whole_model, staged_model = self.copies(2)
        session = Explorer.attach(whole_model)
        planner = Explorer.attach(staged_model).planner
        engine = staged_model.engine
        rows = []
        for q in self.decomposed:
            trace = tracer.new_trace()
            t0 = ns()
            session.sql(q.text)
            t1 = ns()
            ast = planner.parse(parse_query(q.text))
            t2 = ns()
            canonical = planner.normalize(ast)
            t3 = ns()
            plan = planner.plan(ast, predicate=canonical)
            t4 = ns()
            planner.execute(plan)
            t5 = ns()
            kernel = None
            if q.kind in SCALAR:
                masks = engine.masks_for(plan.conjunction())
                engine.clear_cache()
                k0 = ns()
                engine.estimate_masks(masks)
                kernel = ns() - k0
            h0 = ns()
            session.sql(q.text)
            hit = ns() - h0
            variant, other = None, inputs.respelled(q, self.data)
            if other:
                v0 = ns()
                session.sql(other)
                variant = ns() - v0
            tracer.add("api.explorer.sql", t0, t1, trace=trace)
            parent = tracer.add("decomposed", t1, t5, trace=trace)
            for name, lo, hi in (("query.parse", t1, t2), ("plan.normalize", t2, t3),
                                 ("plan.route", t3, t4), ("plan.execute", t4, t5)):
                tracer.add(name, lo, hi, parent=parent, trace=trace)
            rows.append((t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, kernel, hit, variant))
        column = lambda i: [r[i] for r in rows if r[i] is not None]  # noqa: E731
        median = lambda values: statistics.median(values) / 1e3  # noqa: E731
        staged_model.clear_cache()
        plans = [planner.plan(q.text) for q in self.scalars]
        many = batched_us_per_item(planner.execute_many, plans)
        return {
            "query.parse_us": median(column(1)),
            "plan.normalize_us": median(column(2)),
            "plan.route_us": median(column(3)),
            "plan.execute_us": median([r[4] - r[5] for r in rows if r[5] is not None]),
            "plan.execute_many_b64_us_per_query": many,
            "api.explorer.miss_us": median(column(0)),
            "api.explorer.overhead_us": median([r[0] - sum(r[1:5]) for r in rows]),
            "api.explorer.hit_us": median(column(6)),
            "api.explorer.variant_hit_us": median(column(7)),
        }

    def store(self) -> dict:
        m8 = self.model("M8")
        store = SummaryStore(self.fx.dir / "probe-store")
        save_s, _ = clock(store.save, m8, "M8")
        load_s, _ = clock(store.load, "M8")
        size = stored_bytes(store)
        for _ in range(29):
            store.save(self.m1, "M8")   # small fillers: the manifest is the point
        with self.tracer.span("api.store.publish"):
            publish_s, _ = clock(
                lambda: store.save(m8, "M8", lineage={"parent_version": 30})
            )
        return {
            "api.store.save_s": save_s,
            "api.store.load_s": load_s,
            "api.store.bytes": size,
            "api.store.bytes_per_row": size / self.data.num_rows,
            "api.store.publish_s": publish_s,
        }

    def baselines(self) -> dict:
        from repro.baselines.exact import ExactBackend
        from repro.baselines.uniform import uniform_sample

        relation = self.data.relation
        exact = ExactBackend(relation)
        sample = uniform_sample(relation, fraction=0.01, seed=23)
        triples = self.masks(self.m1)
        conjunctions = [c for _, c, _ in triples]
        points = [(q, c) for q, c, _ in triples if q.is_point]
        answers = [("scalar", sample.count(c)) for _, c in points]
        error, _ = accuracy([q for q, _ in points], answers, self.data)
        return {
            "baselines.exact_us": median_us(exact.count, conjunctions),
            "baselines.sample_us": median_us(sample.count, conjunctions),
            "baselines.sample_rel_error": error,
        }

    # -- serve path -------------------------------------------------------
    def raw_roundtrips(self, server, texts, session="probe"):
        """The client's round trip done by hand on a raw socket, one span
        per stage: encode, rtt (send -> last reply byte), decode."""
        from repro.serve import wire

        tracer, frames = self.tracer, []
        decoder = wire.FrameDecoder()
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            for number, text in enumerate(texts, start=1):
                request = {"op": "query", "sql": text, "session": session}
                t0 = time.perf_counter_ns()
                frame = wire.encode_request(request, number)
                t1 = time.perf_counter_ns()
                sock.sendall(frame)
                reply = b""
                while True:
                    reply += sock.recv(1 << 16)
                    if len(reply) >= wire.HEADER_SIZE:
                        _, length, _ = wire.decode_header(reply[: wire.HEADER_SIZE])
                        if len(reply) >= wire.HEADER_SIZE + length:
                            break
                t2 = time.perf_counter_ns()
                (_, _, response), = decoder.feed(reply)
                t3 = time.perf_counter_ns()
                parent = tracer.add("serve.raw.query", t0, t3)
                tracer.add("serve.wire.encode", t0, t1, parent=parent)
                tracer.add("serve.raw.rtt", t1, t2, parent=parent)
                tracer.add("serve.wire.decode", t2, t3, parent=parent)
                frames.append((reply, response, (t1 - t0, t2 - t1, t3 - t2)))
        return frames

    def wire_and_client(self) -> dict:
        from repro.serve import wire

        server = self.fx.server()
        texts = [q.text for q in self.mix]
        repeat = self.sizes.probe_repeat
        frames = self.raw_roundtrips(server, texts * max(1, repeat // len(texts)))
        kinds = [self.mix[i % len(texts)].kind for i in range(len(frames))]
        scalar = [f for f, k in zip(frames, kinds) if k != "group"]
        rows = [f for f, k in zip(frames, kinds) if k == "group"]
        found = {
            "serve.wire.encode_request_us": statistics.median(f[2][0] for f in frames) / 1e3,
            "serve.wire.decode_scalar_us": statistics.median(f[2][2] for f in scalar) / 1e3,
            "serve.wire.decode_rows_us": statistics.median(f[2][2] for f in rows) / 1e3,
            "serve.wire.json_encode_us": median_us(
                wire.encode_json_line, [f[1] for f in scalar]
            ),
            "serve.wire.reply_bytes_scalar": len(frames[1][0]),
            "serve.wire.reply_bytes_rows": len(frames[7][0]),
        }
        retries = 0
        hot = texts[1]
        for protocol in ("binary", "json"):
            with server.client(protocol=protocol, session=f"probe-{protocol}") as client:
                client.query(hot)
                found[f"serve.client.ping_rtt_us_{protocol}"] = median_us(
                    lambda _: client.ping(), range(repeat)
                )
                found[f"serve.client.hot_rtt_us_{protocol}"] = median_us(
                    lambda _: client.query(hot), range(repeat)
                )
                if protocol == "binary":
                    batch = (texts * 2)[:16]
                    found["serve.client.batch16_us_per_query"] = median_us(
                        lambda _: client.query_many(batch), range(max(repeat // 8, 3))
                    ) / len(batch)
                snapshot = client.metrics.snapshot()
                retries += sum(
                    s["value"]
                    for s in snapshot["repro_client_retries_total"]["samples"]
                )
        found["serve.client.retries"] = int(retries)
        return found

    def cold_minis(self) -> dict:
        """The same distinct statements, one connection, against the
        single-process server and the 2-worker cluster: the stage
        breakdown of a miss, and what the worker tier adds to it."""
        fx = self.fx
        single, cluster = fx.server(1), fx.server(2)
        # No point queries: those are data-determined, so a server that
        # already served a stream of them would answer from its cache.
        stream = inputs.gen_queries(fx.seed + 4, 4 * self.sizes.probe_repeat, self.data)
        texts = [q.text for q in stream if not q.is_point]
        texts = texts[: max(self.sizes.probe_repeat // 2, 30)]
        found = {
            "serve.server.boot_s": single.boot_s,
            "serve.cluster.boot_s": cluster.boot_s,
        }
        p50 = {}
        for label, server in (("single", single), ("cluster", cluster)):
            observer = ServerObserver(server)
            workers = [p for p in server.pids() if p != server.process.pid]
            cpu0 = (driver.cpu_seconds(workers), driver.cpu_seconds(server.pids()))
            window = driver.serve_loop(server, [(0, texts)], float("inf"), cycle=False)
            cpu1 = (driver.cpu_seconds(workers), driver.cpu_seconds(server.pids()))
            latencies = window.latencies_ms()
            p50[label] = percentile(latencies, 0.5)
            if label == "single":
                self.cold_served = observer.finish(statistics.fmean(latencies))
                with single.client() as client:
                    found["obs.scrape_ms"] = median_us(
                        lambda _: client.server_metrics(), range(5)
                    ) / 1e3
            else:
                degraded = sum(
                    bool(op.answer and op.answer.get("degraded")) for op in window.ops
                )
                found["serve.cluster.degraded_share"] = degraded / len(window.ops)
                tree = cpu1[1] - cpu0[1]
                found["serve.cluster.worker_cpu_share"] = (
                    (cpu1[0] - cpu0[0]) / tree if tree else 0.0
                )
        found["serve.cluster.fanout_gap_us"] = (p50["cluster"] - p50["single"]) * 1e3
        return found

    def cluster_partials(self) -> dict:
        from repro.serve.cluster import (
            ShardSlice, compute_partial, merge_partials, partial_item,
        )

        m8 = self.model("M8")
        half = m8.num_shards // 2
        slices = [
            ShardSlice.from_summary(m8, list(range(0, half))),
            ShardSlice.from_summary(m8, list(range(half, m8.num_shards))),
        ]
        explorer = Explorer.attach(m8)
        plans = [explorer.plan(q.text) for q in self.sample[: self.sizes.probe_repeat]]
        items = [partial_item(plan) for plan in plans]
        partial_us = median_us(lambda item: compute_partial(slices[0], item), items)
        partials = [[compute_partial(s, item) for s in slices] for item in items]
        merge_us = median_us(
            lambda triple: merge_partials(triple[0], triple[1], triple[2], total=m8.total),
            list(zip(plans, items, partials)),
        )
        return {
            "serve.cluster.partial_us": partial_us,
            "serve.cluster.merge_us": merge_us,
        }

    def ingest(self) -> dict:
        """One one-shard append, a reload, one all-shard append, beside a
        reader on the hot mix.  Runs last: it publishes new versions."""
        from repro.ingest import AppendBatch

        fx, data = self.fx, self.data
        server = fx.server()
        # Version 1 is the model of the base relation, whatever a
        # workload has published since.
        pipeline = IngestPipeline.from_store(
            fx.store, "M8", data.relation, version=1,
            max_iterations=inputs.ITERATIONS,
        )
        (one,), (every,) = inputs.append_batches(fx.seed + 5, data, 1, 1)
        batch = AppendBatch.from_relation(pipeline.schema, one)
        route_us = median_us(lambda _: pipeline.route(batch), range(20))
        texts = [q.text for q in self.mix]
        stop, latencies = threading.Event(), []

        def reader():
            with server.client(session="probe-reader") as client:
                while not stop.is_set():
                    for text in texts:
                        seconds, _ = clock(client.query, text)
                        latencies.append(seconds * 1e3)

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            with self.tracer.span("ingest.append.one_shard"):
                append_s, report = clock(pipeline.append, one)
            with server.client() as client:
                with self.tracer.span("serve.server.reload"):
                    reload_s, _ = clock(client.reload)
            with self.tracer.span("ingest.append.all_shards"):
                all_s, _ = clock(pipeline.append, every)
        finally:
            stop.set()
            thread.join()
        return {
            "ingest.route_us_per_row": route_us / batch.num_rows,
            "ingest.append_s": append_s,
            "ingest.append_all_shards_s": all_s,
            "ingest.refit_share": len(report.shards_refit) / inputs.NUM_SHARDS,
            "ingest.read_p95_ms_during_append": percentile(sorted(latencies), 0.95),
            "serve.server.reload_s": reload_s,
        }


def _names(prefix: str) -> list[str]:
    return [m.name for m in PER_LAYER if m.name.startswith(prefix)]


def trace_coverage(ledger: Ledger, workload, window, served: dict) -> float | None:
    """How much of the workload's whole operation its parts explain.

    explore_cold: the hand-run stages over ``Explorer.sql`` (0.9-1.1
    means the stages are the story).  build_flights: the by-hand build
    over one builder fit.  ingest_live: append + reload-to-visible over
    the cycle.  Serve workloads: the server's own request span plus the
    client's codec over the caller-observed latency — what is left is
    socket, scheduler and interpreter-lock wait on both sides.
    """
    tracer, name = ledger.tracer, workload.name
    stages = ("stats.select", "core.polynomial.compile", "core.solver.solve")
    if name == "build_flights":
        # The by-hand build ran once; compare it with one builder fit.
        fits = [s for s in tracer.spans if s["name"] == "fit.M1"]
        by_hand = [s for s in tracer.spans if s["name"] in stages]
        return coverage(
            [{**s, "trace": 0} for s in by_hand + fits[-1:]], "fit.M1", stages
        )
    if name == "ingest_live":
        return coverage(tracer.spans, "ingest.cycle",
                        ("ingest.append", "serve.reload_visible"))
    if name == "explore_cold":
        # query_path() ran the first queries of the stream both ways.
        return coverage(
            tracer.spans, "api.explorer.sql",
            ("query.parse", "plan.normalize", "plan.route", "plan.execute"),
        )
    latencies = window.latencies_ms()
    codec = (
        ledger.values["serve.wire.encode_request_us"]
        + ledger.values["serve.wire.decode_scalar_us"]
    )
    mean_us = 1e3 * sum(latencies) / len(latencies)
    return (served["serve.server.request_us"] + codec) / mean_us


def run(fx, tracer, workload, state, window, served) -> tuple[dict, dict]:
    """Every per-layer metric the ledger measures: ``(values, reasons)``,
    a value being None when its probe is unavailable."""
    ledger = Ledger(fx, tracer)
    ledger.values["datasets.generate_s"] = statistics.median(fx.timings["generate"])
    ledger.probe(_names("stats.") + [
        "core.polynomial.compile_s", "core.polynomial.terms",
        "core.solver.solve_s", "core.solver.iterations",
        "core.solver.ms_per_iteration", "core.solver.final_error",
    ], ledger.build_m1)
    if ledger.m1 is None:
        ledger.m1 = ledger.model("M1")
    if workload.name == "explore_cold":
        ledger.decomposed = state[0][: fx.sizes.trace_sample]
    ledger.probe([
        "core.polynomial.evaluate_b1_us", "core.polynomial.evaluate_b64_us_per_query",
        "core.polynomial.ns_per_term",
    ], ledger.polynomial)
    ledger.probe(_names("core.inference."), ledger.inference)
    ledger.probe(["core.solver.warm_solve_s", "core.solver.warm_iterations"], ledger.warm_solve)
    ledger.probe(_names("core.sharding."), ledger.sharding)
    ledger.probe(_names("core.arena."), ledger.arena)
    ledger.probe(_names("query.") + _names("plan.") + _names("api.explorer."), ledger.query_path)
    ledger.probe(_names("api.store."), ledger.store)
    ledger.probe(_names("baselines."), ledger.baselines)
    ledger.probe(_names("serve.wire.") + _names("serve.client."), ledger.wire_and_client)

    def trace_coverage_probe():
        return {"trace.coverage": trace_coverage(ledger, workload, window, served)}

    ledger.probe(["trace.coverage"], trace_coverage_probe)
    ledger.probe([
        "serve.server.boot_s", "serve.cluster.boot_s", "obs.scrape_ms",
        "serve.cluster.degraded_share", "serve.cluster.worker_cpu_share",
        "serve.cluster.fanout_gap_us",
    ], ledger.cold_minis)
    def cold_served():
        return ledger.cold_served

    ledger.probe(
        _names("serve.server.stage_") + _names("serve.cache.")
        + _names("serve.coalescer.") + _names("serve.admission.")
        + ["serve.server.request_us", "serve.server.wire_gap_us"],
        cold_served,
    )
    ledger.probe(["serve.cluster.partial_us", "serve.cluster.merge_us"], ledger.cluster_partials)
    ledger.probe(_names("ingest.") + ["serve.server.reload_s"], ledger.ingest)
    return ledger.values, ledger.reasons
