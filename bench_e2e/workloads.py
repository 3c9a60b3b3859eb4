"""The six workloads, their set-up, and the answer checks.

End-to-end paths touch the program only through its stable surface:
``repro.api`` (``SummaryBuilder``, ``SummaryStore``, ``Explorer``),
``repro.ingest.IngestPipeline``, ``repro.serve.ServeClient``,
``repro.datasets.generate_flights`` and the ``repro`` CLI.  A later PR
may delete internals freely without being able to break this file.

A window measures for ``seconds`` over a fixed, seed-determined stream;
answers are recorded during the window and checked after it.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import Explorer, SummaryStore
from repro.ingest import IngestPipeline

from bench_e2e import driver, inputs
from bench_e2e.driver import Op, Window, percentile, timed_loop

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@dataclass(frozen=True)
class Sizes:
    """Constants of the benchmark (``QUICK`` is for the self-test)."""

    rows: int = inputs.NUM_ROWS
    budget_scale: float = 1.0
    explore_stream: int = 10_000
    cold_stream: int = 6_000
    #: The first questions of every point-query pool carry the accuracy
    #: metrics: the same ~600 questions under every seed and speed.
    accuracy_per_pool: int = 20
    #: One-shard appends after which ``ingest_live`` scores the served
    #: version (the window may apply more, or fewer and finish after it).
    ingest_scored_appends: int = 4
    ingest_batches: tuple = (24, 1)
    setup_repeats: int = 2
    #: Calibration pieces timed around every block and every set-up.
    pieces: int = 2
    #: Cap on a workload's blocks (the self-test needs no steadiness).
    max_blocks: int = 10
    trace_sample: int = 400
    #: Statements the per-layer probes take their medians over.
    probe_queries: int = 240
    probe_repeat: int = 200
    #: |estimate - truth| may reach this share of the relation before an
    #: answer fails its oracle check (2.5x the worst seen at full size).
    oracle_tolerance: float = 0.15


FULL = Sizes()
QUICK = Sizes(
    rows=6_000, budget_scale=0.25, explore_stream=1_500, cold_stream=600,
    accuracy_per_pool=2, ingest_scored_appends=2, ingest_batches=(4, 1),
    setup_repeats=1, pieces=0, max_blocks=2, trace_sample=20, probe_queries=120,
    probe_repeat=10, oracle_tolerance=0.5,
)


# ----------------------------------------------------------------------
# Fixture: what one set-up builds, in a fresh directory
# ----------------------------------------------------------------------

class Fixture:
    """Data, models, store and servers of one set-up.  Nothing survives
    it: every run fits its models into a fresh directory, so set-up
    time repeats and work moved into set-up shows."""

    def __init__(self, seed: int, sizes: Sizes, tracer=None, meter=None):
        RESULTS_DIR.mkdir(exist_ok=True)
        self.seed, self.sizes, self.tracer = seed, sizes, tracer
        #: Calibration meter: ticked after every timed phase.
        self.meter = meter
        self.dir = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS_DIR))
        self.store = SummaryStore(self.dir / "store")
        self._data = None
        self.fitted: dict = {}
        self.loaded: dict = {}
        self.timings: dict[str, list[float]] = {}
        #: Bytes the store held after the latest build (before any append).
        self.summary_bytes = 0
        self.servers: dict[int, driver.Server] = {}
        self.explorers: dict = {}

    def timed(self, key: str, call):
        span = self.tracer.span(key) if self.tracer else contextlib.nullcontext()
        began = time.perf_counter()
        with span:
            out = call()
        self.timings.setdefault(key, []).append(time.perf_counter() - began)
        if self.meter is not None and key != "build":
            self.meter.tick()
        return out

    @property
    def data(self) -> inputs.Data:
        if self._data is None:
            self._data = self.timed(
                "generate", lambda: inputs.make_data(self.sizes.rows)
            )
        return self._data

    def build(self, name: str, store: SummaryStore | None = None):
        """Fit, save and load back one model: the unit of ``build_s``."""
        store = self.store if store is None else store
        relation, scale = self.data.relation, self.sizes.budget_scale

        def build():
            fitted = self.timed(
                f"fit.{name}", lambda: inputs.fit_model(relation, name, scale)
            )
            self.timed(f"save.{name}", lambda: store.save(fitted, name))
            return fitted, self.timed(f"load.{name}", lambda: store.load(name))

        self.fitted[name], self.loaded[name] = self.timed("build", build)
        self.summary_bytes = stored_bytes(store)
        return self.loaded[name]

    def explorer(self, name: str, version: int | None = None) -> Explorer:
        """An in-process session on a stored version: the reference the
        served answers are compared with."""
        key = (name, version)
        if key not in self.explorers:
            self.explorers[key] = Explorer.open(self.store, name, version=version)
        return self.explorers[key]

    def server(self, workers: int = 1) -> driver.Server:
        if workers not in self.servers:
            self.servers[workers] = driver.Server(
                self.store.root, "M8", workers=workers, log_dir=self.dir
            ).start()
            if self.meter is not None:
                self.meter.tick()
        return self.servers[workers]

    def close(self) -> None:
        for server in self.servers.values():
            server.stop()
        self.servers.clear()
        for model in (*self.fitted.values(), *self.loaded.values()):
            close = getattr(model, "close", None)
            if close is not None:
                close()
        shutil.rmtree(self.dir, ignore_errors=True)


def stored_bytes(store: SummaryStore) -> int:
    """Bytes on disk of every stored version (``.json`` + ``.npz``)."""
    return sum(
        path.stat().st_size
        for path in Path(store.root).rglob("*")
        if path.suffix in (".json", ".npz") and path.name != "manifest.json"
    )


# ----------------------------------------------------------------------
# Answers: one shape for every surface, and the checks on it
# ----------------------------------------------------------------------

def _label(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def answer_of(result):
    """In-process ``QueryResult`` -> ``("scalar", x)`` or ``("rows", [...])``."""
    if result.is_scalar:
        return ("scalar", float(result.scalar))
    return (
        "rows",
        [(tuple(_label(v) for v in row.labels), float(row.count)) for row in result.rows],
    )


def answer_of_payload(payload: dict):
    """``ServeClient.query`` payload -> the same shape; a ``degraded``
    answer is not an answer."""
    if payload.get("degraded"):
        raise ValueError("degraded answer")
    if payload["kind"] == "scalar":
        return ("scalar", float(payload["value"]))
    return ("rows", [(tuple(row[:-1]), float(row[-1])) for row in payload["rows"]])


def same_answer(a, b, rel: float = 1e-9) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "scalar":
        return math.isclose(a[1], b[1], rel_tol=rel, abs_tol=1e-12)
    return len(a[1]) == len(b[1]) and all(
        la == lb and math.isclose(ca, cb, rel_tol=rel, abs_tol=1e-12)
        for (la, ca), (lb, cb) in zip(a[1], b[1])
    )


def oracle_ok(q: inputs.Q, answer, data: inputs.Data, tolerance: float) -> bool:
    """Is ``answer`` a sane estimate of the truth?  The model is
    approximate, so this catches wrong predicates, wrong attributes and
    wrong merges (errors of the order of the relation), not model error
    (that is ``mean_rel_error``'s job)."""
    slack = tolerance * data.oracle.num_rows
    if q.kind in ("sum", "avg"):
        weights = data.weights(q.agg_attr)
        total = data.oracle.weighted_sum(q.where, q.agg_attr, weights)
        if q.kind == "sum":
            return abs(answer[1] - total) <= slack * float(weights.max())
        truth = total / data.oracle.count(q.where)
        spread = float(weights.max() - weights.min())
        return abs(answer[1] - truth) <= 0.5 * spread
    if q.kind == "group":
        if answer[0] != "rows":
            return False
        truth = data.oracle.group(q.where, q.group_attr)
        index = {_label(v): i for i, v in enumerate(data.labels[q.group_attr])}
        for labels, count in answer[1]:
            if len(labels) != 1:
                return False
            # Sharded models report a group's domain index where plain
            # ones report its label (see README, findings); accept both.
            position = index.get(labels[0], labels[0])
            if not isinstance(position, int) or not 0 <= position < len(truth):
                return False
            if abs(count - truth[position]) > slack:
                return False
        return True
    return answer[0] == "scalar" and abs(answer[1] - data.oracle.count(q.where)) <= slack


def accuracy(queries, answers, data: inputs.Data) -> tuple[float, float]:
    """``(mean_rel_error, f_measure)`` over the point queries: relative
    error on heavy + light hitters, the paper's Fig. 6 F-measure (light
    hitters vs nonexistent values) on rounded estimates."""
    errors, light, null = [], [], []
    for q, answer in zip(queries, answers):
        if not q.is_point:
            continue
        estimate = answer[1]
        if q.kind == "null":
            null.append(estimate)
            continue
        truth = data.oracle.count(q.where)
        errors.append(abs(estimate - truth) / max(truth, inputs.REL_ERROR_FLOOR))
        if q.kind == "light":
            light.append(estimate)
    light_positive = sum(e >= 0.5 for e in light)
    null_positive = sum(e >= 0.5 for e in null)
    positive = light_positive + null_positive
    precision = light_positive / positive if positive else 0.0
    recall = light_positive / len(light)
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return sum(errors) / len(errors), f


# ----------------------------------------------------------------------
# Result of one workload run
# ----------------------------------------------------------------------

@dataclass
class Result:
    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)      # timings as measured
    blocks: list = field(default_factory=list)   # per-block metrics + speed factor
    samples: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)   # per-layer numbers
    reasons: dict = field(default_factory=dict)  # why a layer number is None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.notes

    def require(self, condition: bool, note: str) -> None:
        """A workload-identity assertion: a workload that is not what it
        says it is makes the run incorrect, whatever its answers."""
        if not condition:
            self.notes.append(note)

    def count(self, ok: bool, note: str | None = None) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)
        return ok


def block_metrics(window: Window, answered: int) -> dict:
    """The query metrics of one block of the window; ``answered`` is the
    number of its operations that passed every check."""
    latencies = window.latencies_ms()
    if not latencies:   # a stream that ran dry before this block
        window.extra["metrics"] = {}
        return window.extra["metrics"]
    window.extra["metrics"] = {
        "query_p50_ms": percentile(latencies, 0.50),
        "query_p95_ms": percentile(latencies, 0.95),
        "queries_per_s": answered / window.seconds,
        "cpu_ms_per_query": window.cpu_s * 1e3 / len(latencies),
    }
    return window.extra["metrics"]


def check_ops(ops, queries, to_answer, data, tolerance, result: Result) -> dict:
    """Count every operation; one that raised, was late, or failed the
    oracle check is failed.  Returns ``{stream index: answer}``."""
    answers = {}
    for op in ops:
        ok = op.ok
        if ok:
            try:
                answer = to_answer(op.answer)
                ok = oracle_ok(queries[op.index], answer, data, tolerance)
                answers.setdefault(op.index, answer)
            except (ValueError, KeyError, TypeError, IndexError):
                ok = False
        result.count(ok, f"{op.error or 'oracle'}: {queries[op.index].text}")
    return answers


def score_accuracy(explorer, stream, per_pool, data, result: Result) -> None:
    """Accuracy over the accuracy set of ``stream``, answered in-process."""
    scored = [stream[i] for i in inputs.accuracy_set(stream, per_pool)]
    answers = [answer_of(explorer.sql(q.text)) for q in scored]
    mre, f = accuracy(scored, answers, data)
    result.metrics.update(mean_rel_error=mre, f_measure=f)
    result.samples["accuracy"] = len(scored)


def process_window(call, items, seconds, *, span=None) -> Window:
    """A single-thread in-process window with CPU accounting."""
    cpu, began = time.process_time(), time.perf_counter()
    ops = timed_loop(call, items, seconds, cycle=False, span=span)
    return Window(ops, time.perf_counter() - began, time.process_time() - cpu)


def op_span(tracer, name: str):
    """A per-operation span recorder for the traced window."""
    if tracer is None:
        return None
    return lambda index, start, end: tracer.add(name, start * 1e9, end * 1e9)


def warm_texts(seed: int, data, avoid=(), count: int = 20) -> list[str]:
    """Range statements for warm-up: they trigger lazy set-up and are
    not questions the measured stream ``avoid`` asks."""
    asked = {q.key for q in avoid}
    stream = inputs.gen_queries(seed + 1000, 6 * count, data)
    return [q.text for q in stream if q.kind == "range" and q.key not in asked][:count]


class Workload:
    """``setup`` builds (timed as ``setup_s``); ``window`` measures and
    records raw answers; ``check`` counts failures on the recorded
    answers; ``score`` adds what only the untraced run reports."""

    name = ""
    models: tuple = ()
    #: The window runs as this many consecutive blocks; every timing is
    #: taken per block and the quiet quartile reported (see runner).
    blocks = 10

    def setup(self, fx: Fixture):
        raise NotImplementedError

    def window(self, fx, state, seconds, tracer=None, skip: int = 0) -> Window:
        raise NotImplementedError

    def check(self, fx, state, window: Window, result: Result) -> None:
        raise NotImplementedError

    def score(self, fx, state, windows: list, result: Result) -> None:
        """What only the untraced run reports, given all its blocks."""
        raise NotImplementedError

    def build_metrics(self, fx: Fixture, result: Result) -> None:
        residuals = [inputs.solver_residual(fx.fitted[m]) for m in self.models]
        result.metrics["summary_bytes"] = fx.summary_bytes
        result.metrics["solver_residual"] = max(r for r in residuals if r is not None)


# ----------------------------------------------------------------------
# build_flights
# ----------------------------------------------------------------------

class BuildFlights(Workload):
    name = "build_flights"
    models = ("Ent1&2", "Ent3&4", "M1", "M8")
    blocks = 3   # a block is one pass, however long it takes

    def setup(self, fx):
        stream = inputs.gen_queries(fx.seed, fx.sizes.explore_stream, fx.data)
        return [stream[i] for i in inputs.accuracy_set(stream, fx.sizes.accuracy_per_pool)]

    def window(self, fx, scored, seconds, tracer=None, skip=0):
        store = fx.store = SummaryStore(fx.dir / f"pass{skip}")
        errors, began = {}, time.perf_counter()
        for model in self.models:
            try:
                fx.build(model, store)
            except Exception as exc:  # counted in check()
                errors[model] = f"build {model}: {exc!r}"
        pass_s = time.perf_counter() - began
        # The build's product is checked by asking it questions; these
        # first-touch queries on the loaded M1 are the workload's
        # query metrics.
        explorer = Explorer.attach(fx.loaded["M1"])
        window = process_window(
            explorer.sql, [q.text for q in scored], math.inf,
            span=op_span(tracer, f"{self.name}.op"),
        )
        window.extra.update(pass_s=pass_s, errors=errors, consumed=1)
        return window

    def check(self, fx, scored, window, result):
        errors = window.extra["errors"]
        for model in self.models:
            result.count(model not in errors, errors.get(model))
        # Every loaded model must answer like the model that was saved.
        for model in self.models:
            fresh = Explorer.attach(fx.fitted[model])
            back = Explorer.attach(fx.loaded[model])
            for q in scored[:20]:
                same = same_answer(answer_of(fresh.sql(q.text)), answer_of(back.sql(q.text)))
                result.count(same, f"round trip {model}: {q.text}")
        before = result.failed
        window.extra["answers"] = check_ops(
            window.ops, scored, answer_of, fx.data, fx.sizes.oracle_tolerance, result
        )
        block_metrics(window, len(window.ops) - (result.failed - before))
        window.extra["metrics"]["build_s"] = window.extra["pass_s"]

    def score(self, fx, scored, windows, result):
        answers = windows[-1].extra["answers"]
        mre, f = accuracy(scored, [answers[i] for i in range(len(scored))], fx.data)
        result.metrics.update(mean_rel_error=mre, f_measure=f)
        result.samples["accuracy"] = len(scored)
        self.build_metrics(fx, result)


# ----------------------------------------------------------------------
# explore_cold
# ----------------------------------------------------------------------

class ExploreCold(Workload):
    name = "explore_cold"
    models = ("M1",)

    def setup(self, fx):
        stream = inputs.gen_queries(fx.seed, fx.sizes.explore_stream, fx.data)
        fx.build("M1")
        explorer = Explorer.open(fx.store, "M1")
        for text in warm_texts(fx.seed, fx.data, stream):
            explorer.sql(text)
        return stream, explorer

    def window(self, fx, state, seconds, tracer=None, skip=0):
        stream, explorer = state
        hits = explorer.cache_info()["results"]["hits"]
        window = process_window(
            explorer.sql, [q.text for q in stream[skip:]], seconds,
            span=op_span(tracer, f"{self.name}.op"),
        )
        for op in window.ops:
            op.index += skip
        window.extra.update(
            consumed=len(window.ops),
            cache_hits=explorer.cache_info()["results"]["hits"] - hits,
        )
        return window

    def check(self, fx, state, window, result):
        stream, _ = state
        result.require(
            window.extra["cache_hits"] == 0,
            "explore_cold hit a result cache: the stream is not pairwise distinct",
        )
        before = result.failed
        window.extra["answers"] = check_ops(
            window.ops, stream, answer_of, fx.data, fx.sizes.oracle_tolerance, result
        )
        block_metrics(window, len(window.ops) - (result.failed - before))

    def score(self, fx, state, windows, result):
        stream, explorer = state
        # What the window did not reach of the accuracy set is answered
        # now, outside it.
        answers = {}
        for window in windows:
            answers.update(window.extra["answers"])
        scored = inputs.accuracy_set(stream, fx.sizes.accuracy_per_pool)
        for i in scored:
            if i not in answers:
                answers[i] = answer_of(explorer.sql(stream[i].text))
        mre, f = accuracy([stream[i] for i in scored], [answers[i] for i in scored], fx.data)
        result.metrics.update(mean_rel_error=mre, f_measure=f)
        result.samples["accuracy"] = len(scored)
        self.build_metrics(fx, result)


# ----------------------------------------------------------------------
# serve_hot / serve_cold / cluster_cold
# ----------------------------------------------------------------------

def cache_counts(server) -> dict:
    with server.client() as client:
        return client.stats()["cache"]


def hit_rate(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


class ServeWorkload(Workload):
    models = ("M8",)
    workers = 1
    cycle = False

    def streams(self, fx):
        raise NotImplementedError

    def setup(self, fx):
        queries, streams = self.streams(fx)
        fx.build("M8")
        server = fx.server(self.workers)
        warm = streams[0][1] if self.cycle else warm_texts(fx.seed, fx.data, queries)
        for slot in range(len(streams)):
            with server.client(session=f"bench-{slot}") as client:
                for text in warm:
                    client.query(text)
        return queries, streams, server

    def window(self, fx, state, seconds, tracer=None, skip=0):
        _, streams, server = state
        if skip and not self.cycle:
            streams = [(start + skip, texts[skip:]) for start, texts in streams]
        before = cache_counts(server)
        window = driver.serve_loop(
            server, streams, seconds, cycle=self.cycle,
            span=op_span(tracer, f"{self.name}.op"),
        )
        window.extra["hit_rate"] = hit_rate(before, cache_counts(server))
        return window

    def check(self, fx, state, window, result):
        queries, _, _ = state
        rate = window.extra["hit_rate"]
        result.layer["serve.cache.hit_rate"] = rate
        if self.cycle:
            result.require(rate >= 0.99, f"{self.name}: cache hit rate {rate:.4f} < 0.99")
        else:
            result.require(rate <= 0.01, f"{self.name}: cache hit rate {rate:.4f} > 0.01")
        before = result.failed
        check_ops(window.ops, queries, answer_of_payload, fx.data,
                  fx.sizes.oracle_tolerance, result)
        # Parity: what was served equals the in-process Explorer answer
        # on the same stored version (hot: every answer; cold: every 10th).
        explorer = fx.explorer("M8")
        every = 1 if self.cycle else 10
        reference: dict = {}
        for op in window.ops:
            if not op.ok or op.index % every:
                continue
            if op.index not in reference:
                reference[op.index] = answer_of(explorer.sql(queries[op.index].text))
            try:
                same = same_answer(answer_of_payload(op.answer), reference[op.index])
            except (ValueError, KeyError):
                same = False
            if not same:
                result.failed += 1
                result.notes.append(f"parity: {queries[op.index].text}")
        result.samples["parity"] = result.samples.get("parity", 0) + len(reference)
        block_metrics(window, len(window.ops) - (result.failed - before))

    def accuracy_stream(self, fx, queries):
        return queries

    def score(self, fx, state, windows, result):
        score_accuracy(
            fx.explorer("M8"), self.accuracy_stream(fx, state[0]),
            fx.sizes.accuracy_per_pool, fx.data, result,
        )
        self.build_metrics(fx, result)


class ServeHot(ServeWorkload):
    name = "serve_hot"
    cycle = True

    def streams(self, fx):
        mix = inputs.dashboard_mix(fx.seed, fx.data)
        texts = [q.text for q in mix]
        return mix, [(0, texts), (0, texts)]

    def accuracy_stream(self, fx, queries):
        # 12 statements carry no accuracy signal; score the served model
        # on the same fixed set as the cold workloads.
        return inputs.gen_queries(fx.seed + 1, fx.sizes.cold_stream, fx.data)


class ServeCold(ServeWorkload):
    name = "serve_cold"

    def streams(self, fx):
        stream = inputs.gen_queries(fx.seed + 1, fx.sizes.cold_stream, fx.data)
        half = len(stream) // 2
        texts = [q.text for q in stream]
        return stream, [(0, texts[:half]), (half, texts[half:])]


class ClusterCold(ServeCold):
    name = "cluster_cold"
    workers = 2


# ----------------------------------------------------------------------
# ingest_live
# ----------------------------------------------------------------------

def client_view(payload: dict) -> dict:
    """``ServeClient.call`` returns the packed grouped shape; render the
    documented ``rows`` shape ``ServeClient.query`` would."""
    if payload.get("kind") == "rows" and "rows" not in payload:
        counts = [float(c) for c in payload["counts"]]
        rows = [[*labels, count] for labels, count in zip(payload["labels"], counts)]
        return {**payload, "rows": rows}
    return payload


class IngestLive(Workload):
    name = "ingest_live"
    models = ("M8",)
    #: A block is one append cycle and the quiet reads after it, however
    #: long they take: every block holds the same work, so blocks compare.
    blocks = 5
    #: Reads alone after a cycle last this many times the cycle, so the
    #: median read is a quiet read and the 95th percentile a read beside
    #: a write: neither sits on the edge.
    QUIET = 1.5

    def setup(self, fx):
        data = fx.data
        mix = inputs.dashboard_mix(fx.seed, data)
        fresh = [q for q in inputs.gen_queries(fx.seed + 2, 400, data) if q.kind == "range"]
        batches = inputs.append_batches(fx.seed, data, *fx.sizes.ingest_batches)
        fx.build("M8")
        server = fx.server()
        pipeline = IngestPipeline.from_store(
            fx.store, "M8", data.relation, max_iterations=inputs.ITERATIONS
        )
        with server.client(session="bench-0") as client:
            for q in mix:
                client.query(q.text)
        # Reads: the hot mix, every 10th request a fresh distinct query.
        reads, cursor = [], 0
        while cursor < len(fresh):
            for q in mix:
                if len(reads) % 10 == 9 and cursor < len(fresh):
                    reads.append(fresh[cursor])
                    cursor += 1
                reads.append(q)
        #: One-shard appends applied so far, and the version the
        #: ``ingest_scored_appends``-th of them published.
        progress = {"applied": 0, "scored_version": None}
        return reads, batches, server, pipeline, progress

    @staticmethod
    def cycle(fx, control, pipeline, progress, batch) -> dict:
        """One one-shard append, its reload, and pings until the new
        version answers."""
        out = {"ok": False, "t0": time.perf_counter()}
        try:
            report = pipeline.append(batch)
            out["t1"] = time.perf_counter()
            control.reload()
            while control.ping()["version"] != report.published_version:
                pass
            out["t2"] = time.perf_counter()
            out["ok"] = len(report.shards_refit) == 1
            progress["applied"] += 1
            if progress["applied"] == fx.sizes.ingest_scored_appends:
                progress["scored_version"] = report.published_version
        except Exception as exc:  # counted in check()
            out["error"] = repr(exc)
        return out

    def window(self, fx, state, seconds, tracer=None, skip=0):
        reads, (ones, _), server, pipeline, progress = state
        texts = [q.text for q in reads]
        stop = threading.Event()
        read_ops: list[Op] = []
        ready = threading.Barrier(2)

        def reader():
            # ``call``, not ``query``: the envelope names the version served.
            with server.client(session="bench-0") as client:
                client.ping()
                read_ops.extend(timed_loop(
                    lambda sql: client.call("query", sql=sql, session="bench-0"),
                    texts, math.inf, cycle=True, barrier=ready, stop=stop,
                    span=op_span(tracer, f"{self.name}.op"),
                ))

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        pids = [os.getpid(), *server.pids()]
        with server.client() as control:
            ready.wait()
            cpu_before, began = driver.cpu_seconds(pids), time.perf_counter()
            done = self.cycle(fx, control, pipeline, progress, ones[skip])
            time.sleep(self.QUIET * (time.perf_counter() - done["t0"]))
            elapsed = time.perf_counter() - began
            cpu = driver.cpu_seconds(pids) - cpu_before
            stop.set()
        thread.join()
        if tracer is not None and done["ok"]:
            ns = [done[k] * 1e9 for k in ("t0", "t1", "t2")]
            trace = tracer.new_trace()
            tracer.add("ingest.cycle", ns[0], ns[2], trace=trace)
            tracer.add("ingest.append", ns[0], ns[1], trace=trace)
            tracer.add("serve.reload_visible", ns[1], ns[2], trace=trace)
        return Window(read_ops, elapsed, cpu, {"cycle": done, "began": began, "consumed": 1})

    def check(self, fx, state, window, result):
        reads, progress = state[0], state[4]
        done = window.extra["cycle"]
        # An append and a reload are one operation each.
        result.count(done["ok"], done.get("error", "append refit more than one shard"))
        result.count(done["ok"])
        # Reads are checked for shape and sanity at every version, and
        # for parity at the first and the scored version.
        versions = {1, progress["scored_version"]} - {None}
        explorers = {v: fx.explorer("M8", v) for v in versions}
        ceiling = fx.data.num_rows * (1 + progress["applied"] / 50) * 1.5
        before = result.failed
        for op in window.ops:
            ok = op.ok
            if ok:
                try:
                    answer = answer_of_payload(client_view(op.answer["result"]))
                    values = [answer[1]] if answer[0] == "scalar" else [c for _, c in answer[1]]
                    ok = all(math.isfinite(v) and v >= -1e-9 for v in values)
                    if reads[op.index].kind not in ("sum", "avg"):
                        ok = ok and max(values, default=0.0) <= ceiling
                    explorer = explorers.get(op.answer.get("version"))
                    if ok and explorer is not None:
                        ok = same_answer(answer, answer_of(explorer.sql(reads[op.index].text)))
                except (ValueError, KeyError, TypeError):
                    ok = False
            result.count(ok, f"{op.error or 'read check'}: {reads[op.index].text}")
        metrics = block_metrics(window, len(window.ops) - (result.failed - before))
        window.extra["during"] = []
        if done["ok"]:
            metrics["append_s"] = done["t1"] - done["t0"]
            metrics["reload_s"] = done["t2"] - done["t1"]
            began = window.extra["began"]
            window.extra["during"] = [
                op.latency_s * 1e3 for op in window.ops
                if done["t0"] - began <= op.started_s <= done["t2"] - began
            ]

    def score(self, fx, state, windows, result):
        _, (ones, alls), server, pipeline, progress = state
        result.samples["append"] = sum(w.extra["cycle"]["ok"] for w in windows)
        during = sorted(ms for w in windows for ms in w.extra["during"])
        if during:
            result.layer["ingest.read_p95_ms_during_append"] = percentile(during, 0.95)
        # With the reader gone: finish the scored appends if the window
        # was too short for them, then see what refitting every shard costs.
        with server.client() as control:
            while progress["applied"] < fx.sizes.ingest_scored_appends:
                done = self.cycle(fx, control, pipeline, progress, ones[progress["applied"]])
                result.count(done["ok"], done.get("error"))
                if not done["ok"]:
                    break
            began = time.perf_counter()
            pipeline.append(alls[0])
            result.layer["ingest.append_all_shards_s"] = time.perf_counter() - began
        # Accuracy of the version the scored appends published, against
        # the relation grown by exactly those batches.
        version = progress["scored_version"]
        result.require(version is not None, "ingest_live: the scored appends did not complete")
        if version is not None:
            grown = fx.data
            for batch in ones[: fx.sizes.ingest_scored_appends]:
                grown = grown.grown(batch)
            stream = inputs.gen_queries(fx.seed + 1, fx.sizes.cold_stream, fx.data)
            score_accuracy(
                fx.explorer("M8", version), stream,
                fx.sizes.accuracy_per_pool, grown, result,
            )
        self.build_metrics(fx, result)


WORKLOADS = {
    w.name: w
    for w in (BuildFlights, ExploreCold, ServeHot, ServeCold, ClusterCold, IngestLive)
}
