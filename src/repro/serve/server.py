"""The concurrent session server: summaries as a network service.

The paper's pitch is *interactive* exploration — approximate answers in
milliseconds so many analysts can probe a dataset without touching the
base relation.  :class:`SummaryServer` is that claim as a process: an
asyncio TCP server speaking newline-delimited JSON, answering every
client through one :class:`~repro.api.explorer.Explorer` (one plan
cache) over a backend loaded from a
:class:`~repro.api.store.SummaryStore`, with

* **single-flight evaluation** — a miss is evaluated by the request
  that found it: on the event loop when every plan is one polynomial
  pass (routed ``summary``, ``sharded`` or ``none``, at most one GROUP
  BY attribute — cheaper than a thread hand-off), in one executor hop
  otherwise (exact and generic backends, multi-attribute GROUP BY, the
  cluster fan-out); a request whose canonical key is already being
  evaluated in the executor awaits that execution instead of starting
  a second one (:mod:`repro.serve.coalescer`);
* a **shared result cache** — TTL + LRU keyed on ``(store version,
  canonical predicate key)``, shared across clients
  (:mod:`repro.serve.cache`);
* **admission control** — bounded queue depth and per-client in-flight
  limits, decided as each request's frame is read, with fast 503-style
  rejections carrying a ``Retry-After`` hint
  (:mod:`repro.serve.admission`);
* **hot reload** — ``SIGHUP`` or the ``reload`` op swaps in another
  store version without dropping in-flight requests (each request
  pins the generation it started on).

Two wire protocols share the port, selected by sniffing each
connection's **first byte** (see :mod:`repro.serve.wire`):

* **binary** (the default client transport) — length-prefixed frames
  whose first byte is the non-ASCII magic ``0xAB``; group-by count
  vectors ship as raw float64 buffers;
* **JSON lines** — anything else; one JSON object per line, answered
  by one JSON line (the debugging protocol, and what pre-binary
  clients already speak)::

      {"id": 1, "op": "query", "sql": "SELECT COUNT(*) FROM R", "session": "a"}
      {"id": 1, "ok": true, "status": 200, "result": {"kind": "scalar", ...},
       "cached": false, "version": 3}

Ops: ``query`` and ``query_batch`` (the admitted ones),
``ping``, ``stats``, ``describe``, ``reload`` (optional
``version``/``tag``).  Errors come back with ``ok: false`` and an
HTTP-flavored ``status`` — 400 for bad requests, 503 with
``retry_after`` when saturated, 500 otherwise.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.api.explorer import Explorer
from repro.api.store import SummaryStore
from repro.errors import InjectedFault, QueryError, ReproError
from repro.obs import (
    MetricsRegistry,
    SlowQueryLog,
    Trace,
    TraceRing,
    activate,
    current_trace,
    render_prometheus,
    sample_value,
)
from repro.obs import span as stage_span
from repro.obs.trace import Span
from repro.query.results import QueryResult
from repro.serve import wire
from repro.serve.admission import AdmissionController, ServerSaturated
from repro.serve.cache import TTLCache
from repro.serve.coalescer import Coalescer
from repro.serve.watcher import StoreWatcher


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one server (CLI flag in parentheses)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; bound port on server.port after start()
    #: Global admitted-but-unfinished bound (--max-queue).
    max_queue: int = 64
    #: Per-client pipelining bound (--max-inflight).
    max_inflight_per_client: int = 16
    #: Shared result-cache entries (--cache-size); 0 disables.
    cache_size: int = 2048
    #: Result time-to-live in seconds (--cache-ttl); None = no expiry.
    cache_ttl: float | None = 60.0
    #: Paper-style rounding of model estimates (--rounded).
    rounded: bool = False
    #: Store-watcher poll interval in seconds (--watch); None disables.
    #: When set on a store-backed server, newly published versions
    #: (e.g. from ``repro ingest``) are hot-reloaded automatically —
    #: the interval is the serving-staleness bound.
    watch_interval: float | None = None
    #: Accept binary-framed connections (--protocol).  Off, every
    #: connection is treated as JSON lines — the debugging mode
    #: (``repro serve --protocol json``).  JSON clients work either way.
    binary: bool = True
    #: Recent finished request traces kept in memory (--trace-ring);
    #: 0 disables the ring (spans still feed the stage histograms).
    trace_ring: int = 256
    #: Slow-query threshold in milliseconds (--slow-query-ms); None
    #: disables the slow-query log entirely.
    slow_query_ms: float | None = None
    #: JSONL file the slow-query log appends to (--slow-query-log);
    #: None keeps entries only in the in-memory ring.
    slow_query_log: str | None = None

    def validated(self) -> "ServeConfig":
        """Range-check every knob; errors name the CLI flag at fault."""
        checks = [
            (self.max_queue >= 1, "max_queue (--max-queue) must be >= 1"),
            (
                self.max_inflight_per_client >= 1,
                "max_inflight_per_client (--max-inflight) must be >= 1",
            ),
            (self.cache_size >= 0, "cache_size (--cache-size) must be >= 0"),
            (
                self.cache_ttl is None or self.cache_ttl > 0,
                "cache_ttl (--cache-ttl) must be > 0",
            ),
            (
                self.watch_interval is None or self.watch_interval > 0,
                "watch_interval (--watch) must be > 0",
            ),
            (1 <= self.port or self.port == 0, "port (--port) must be >= 0"),
            (self.trace_ring >= 0, "trace_ring (--trace-ring) must be >= 0"),
            (
                self.slow_query_ms is None or self.slow_query_ms >= 0,
                "slow_query_ms (--slow-query-ms) must be >= 0",
            ),
        ]
        for ok, message in checks:
            if not ok:
                raise ReproError(message)
        return self


class _Generation:
    """One loaded store version and the one :class:`Explorer` that plans
    every request against it.

    Plans are cached per SQL text inside the Explorer (a plan depends
    only on the text and the model), results in the server-wide TTL
    cache keyed on this generation's version.  A request's ``session``
    is a label echoed in its reply, trace and slow-log entry; it holds
    no state here.  Requests capture the generation they start on, so
    a hot reload never yanks a backend out from under an in-flight
    query.
    """

    __slots__ = ("version", "label", "explorer")

    def __init__(self, version: int, explorer: Explorer, label: str):
        self.version = version
        self.label = label
        self.explorer = explorer


def _plain(value):
    """Numpy scalars → Python scalars for JSON."""
    return value.item() if hasattr(value, "item") else value


def _wire_label(value):
    """One group label as a wire type (exotic label objects — e.g.
    binned-domain intervals — render to their string form *here*, on
    purpose; the strict encoders refuse to guess downstream)."""
    value = _plain(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def result_payload(result: QueryResult) -> dict:
    """Wire-neutral view of one :class:`QueryResult`.

    Scalars are already plain JSON types.  Grouped results keep the
    label rows and the count vector *separate* — the binary protocol
    ships ``counts`` as a raw float64 buffer (zero-copy), and the JSON
    path renders the documented ``rows`` shape via
    :func:`repro.serve.wire.rows_view` at encode time.
    """
    if result.is_scalar:
        payload: dict = {"kind": "scalar", "value": float(result.scalar)}
        if result.estimate is not None:
            payload["std"] = float(result.std)
            low, high = result.ci95
            payload["ci95"] = [float(low), float(high)]
        return payload
    return {
        "kind": "rows",
        "group_by": list(result.query.group_by),
        "labels": [
            [_wire_label(label) for label in row.labels] for row in result.rows
        ],
        "counts": np.asarray(
            [row.count for row in result.rows], dtype=np.float64
        ),
    }


#: Ops the server answers; anything else gets the metric label "other"
#: so client-controlled op strings cannot explode label cardinality.
_KNOWN_OPS = frozenset(
    {
        "query",
        "query_batch",
        "ping",
        "stats",
        "describe",
        "reload",
        "metrics",
        "partial_batch",
    }
)


#: Ops that take an admission slot.
_ADMITTED_OPS = frozenset({"query", "query_batch"})

#: Routes whose plans compute in this process in one polynomial pass
#: (or not at all): the executions that run on the event loop.
_INLINE_ROUTES = frozenset({"summary", "sharded", "none"})


def _op_label(request: dict) -> str:
    op = request.get("op", "query")
    return op if op in _KNOWN_OPS else "other"


def _adopt_trace_id(value):
    """Client-supplied trace id (hex string or int), or None."""
    if isinstance(value, str):
        try:
            value = int(value, 16)
        except ValueError:
            return None
    if isinstance(value, int) and not isinstance(value, bool):
        if 0 < value < 2**63:
            return value
    return None


class _Evaluated:
    """One executed payload, the (possibly shared) evaluate span, and
    the trace of the request that ran the execution."""

    __slots__ = ("payload", "span", "leader")

    def __init__(self, payload, span, leader):
        self.payload = payload
        self.span = span
        self.leader = leader


def _parse_line(line: bytes):
    """One JSON-lines request dict, or the error to answer it with."""
    try:
        request = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        return error
    if not isinstance(request, dict):
        return QueryError("request must be a JSON object")
    return request


async def _read_exactly(reader, count: int):
    """Read exactly ``count`` bytes, or ``None`` on EOF/peer drop."""
    if count == 0:
        return b""
    try:
        return await reader.readexactly(count)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None


class SummaryServer:
    """Serves one summary (or shard set) to many concurrent clients.

    Construct from a store for the full feature set (versioned cache
    keys, hot reload)::

        server = SummaryServer(store="models", name="flights")

    or from an in-memory summary/backend for tests and embedding::

        server = SummaryServer(summary)

    then ``asyncio.run(server.serve_forever())``, or drive it from a
    background thread with :class:`ServerThread`.
    """

    def __init__(
        self,
        source=None,
        *,
        store=None,
        name: str | None = None,
        version: int | None = None,
        tag: str | None = None,
        config: ServeConfig | None = None,
        chaos=None,
    ):
        self.config = (config or ServeConfig()).validated()
        #: Optional :class:`~repro.chaos.FaultInjector` (tests/soak
        #: only).  The hooks below consult it when present; without one
        #: they cost a single ``is None`` check.
        self.chaos = chaos
        if (source is None) == (store is None):
            raise ReproError(
                "serve exactly one thing: an in-memory summary/backend, "
                "or a store (--store) plus a summary name (--name)"
            )
        if store is not None and name is None:
            raise ReproError("a store server needs a summary name (--name)")
        self._store = (
            store
            if store is None or isinstance(store, SummaryStore)
            else SummaryStore(store)
        )
        self._name = name
        if self._store is not None:
            self._generation = self._load_generation(version=version, tag=tag)
        else:
            explorer = Explorer.attach(source, rounded=self.config.rounded)
            self._generation = _Generation(
                0, explorer, label=repr(explorer.backend)
            )
        #: One registry backs every component's counters, so a single
        #: ``snapshot()`` is a consistent view of the whole server (and
        #: one scrape covers it all — see docs/observability.md).
        self.metrics = MetricsRegistry()
        self._requests_total = self.metrics.counter(
            "repro_requests_total",
            "Statements served, by op (a query_batch counts each "
            "statement it carries).",
            ("op",),
        )
        self._errors_total = self.metrics.counter(
            "repro_errors_total", "Requests answered with ok=false, by op.",
            ("op",),
        )
        self._request_seconds = self.metrics.histogram(
            "repro_request_seconds",
            "End-to-end dispatch latency per request, by op.",
            ("op",),
        )
        self._stage_seconds = self.metrics.histogram(
            "repro_stage_seconds",
            "Per-request time spent in each serving stage (trace spans).",
            ("stage",),
        )
        self._reloads_total = self.metrics.counter(
            "repro_reloads_total", "Hot reloads applied."
        )
        self._slow_total = self.metrics.counter(
            "repro_slow_queries_total",
            "Requests recorded by the slow-query log.",
        )
        self._connections_total = self.metrics.counter(
            "repro_connections_total", "Connections accepted, by protocol.",
            ("protocol",),
        )
        self.traces = TraceRing(self.config.trace_ring)
        self.slow_log = SlowQueryLog(
            threshold_ms=self.config.slow_query_ms,
            path=self.config.slow_query_log,
        )
        if self.chaos is not None and hasattr(self.chaos, "bind_metrics"):
            self.chaos.bind_metrics(self.metrics)
        self.cache = TTLCache(
            maxsize=self.config.cache_size,
            ttl=self.config.cache_ttl,
            metrics=self.metrics,
        )
        self.admission = AdmissionController(
            max_queue=self.config.max_queue,
            max_inflight_per_client=self.config.max_inflight_per_client,
            metrics=self.metrics,
        )
        if self.config.watch_interval is not None and self._store is None:
            raise ReproError(
                "watching for new versions (--watch) needs a store-backed "
                "server (start with --store/--name, not an in-memory summary)"
            )
        self.watcher: StoreWatcher | None = None
        self.coalescer = Coalescer(self._evaluate, metrics=self.metrics)
        self._server: asyncio.base_events.Server | None = None
        self.host = self.config.host
        self.port = self.config.port
        self._started_at: float | None = None

    # -- generations / hot reload -----------------------------------------
    def _load_generation(
        self, version: int | None = None, tag: str | None = None
    ) -> _Generation:
        record, summary = self._store.load_with_record(
            self._name, version=version, tag=tag
        )
        explorer = Explorer.attach(summary, rounded=self.config.rounded)
        return _Generation(record.version, explorer, label=record.describe())

    @property
    def store(self) -> SummaryStore | None:
        """The attached summary store (``None`` for in-memory servers)."""
        return self._store

    @property
    def name(self) -> str | None:
        """The served summary name inside the store, if store-backed."""
        return self._name

    @property
    def version(self) -> int:
        return self._generation.version

    @property
    def schema(self):
        """Schema of the currently served generation's backend."""
        return self._generation.explorer.schema

    @property
    def label(self) -> str:
        """Human-readable description of what is being served."""
        return self._generation.label

    def reload(self, version: int | None = None, tag: str | None = None) -> int:
        """Swap in another store version (latest by default); returns it.

        In-flight requests finish on the generation they started with;
        the shared cache needs no sweep because its keys carry the
        version.  Blocking — call via an executor from async code.
        """
        if self._store is None:
            raise ReproError(
                "hot reload needs a store-backed server "
                "(start with --store/--name, not an in-memory summary)"
            )
        generation = self._load_generation(version=version, tag=tag)
        self._generation = generation  # atomic swap
        self._reloads_total.inc()
        return generation.version

    # -- counters (registry-backed read surface) ----------------------------
    @property
    def requests(self) -> int:
        return int(self._requests_total.total())

    @property
    def errors(self) -> int:
        return int(self._errors_total.total())

    @property
    def reloads(self) -> int:
        return int(self._reloads_total.value)

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started_at = time.monotonic()
        if self.config.watch_interval is not None:
            self.watcher = StoreWatcher(self, self.config.watch_interval)
            self.watcher.start()

    async def stop(self) -> None:
        if self.watcher is not None:
            await self.watcher.stop()
            self.watcher = None
        await self.coalescer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        """Run until cancelled; installs a ``SIGHUP`` → reload handler
        when the platform and thread allow it."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        sighup = getattr(signal, "SIGHUP", None)  # absent on Windows
        if sighup is not None:
            try:
                loop.add_signal_handler(
                    sighup,
                    lambda: loop.create_task(self._reload_in_executor()),
                )
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # event loop without signal support, or non-main thread
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    async def _reload_in_executor(
        self, version: int | None = None, tag: str | None = None
    ) -> int:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: self.reload(version=version, tag=tag)
        )

    # -- connection handling ------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        client = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else str(peer)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            # Protocol sniff: the binary magic's first byte is non-ASCII,
            # so no JSON-lines request can ever start with it.  JSON
            # clients keep working with no flag or handshake.
            first = await reader.read(1)
            if first:
                if first == wire.MAGIC[:1]:
                    # Binary framing.  With binary disabled, close right
                    # away — no JSON line starts with the magic byte, and
                    # waiting for a newline that never comes would hang
                    # the client until its socket timeout.
                    if self.config.binary:
                        self._connections_total.labels(protocol="binary").inc()
                        await self._binary_loop(
                            reader, writer, write_lock, client, tasks, first
                        )
                else:
                    self._connections_total.labels(protocol="json").inc()
                    await self._json_loop(
                        reader, writer, write_lock, client, tasks, first
                    )
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # connection teardown racing server shutdown

    async def _json_loop(
        self, reader, writer, write_lock, client, tasks, first: bytes
    ) -> None:
        pending = first
        while True:
            line = pending + await reader.readline()
            pending = b""
            if not line:
                break
            if not line.strip():
                continue
            request = _parse_line(line)
            task = asyncio.create_task(
                self._serve_request(
                    writer, write_lock, client, request,
                    self._take_slot(client, request),
                )
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)

    async def _binary_loop(
        self, reader, writer, write_lock, client, tasks, first: bytes
    ) -> None:
        """One binary connection: framed requests, pipelined responses.

        Framing errors that leave the stream aligned (a bad body) are
        answered per-frame; errors that lose alignment (bad magic,
        version mismatch, oversized declared length) are answered once
        with a connection-level error frame, then the connection closes
        — the client reconnects cleanly rather than resyncing."""
        rest = await _read_exactly(reader, wire.HEADER_SIZE - 1)
        header = None if rest is None else first + rest
        while header is not None:
            try:
                opcode, length, request_id = wire.decode_header(header)
            except wire.WireError as error:
                await self._write_frame(
                    writer,
                    write_lock,
                    wire.error_frame(0, 400, str(error)),
                )
                self._errors_total.labels(op="invalid").inc()
                return
            body = await _read_exactly(reader, length)
            if body is None:
                return  # peer vanished mid-frame
            try:
                request = wire.decode_request(opcode, body)
            except wire.WireError as error:
                # Body consumed; the stream is still frame-aligned.
                self._errors_total.labels(op="invalid").inc()
                await self._write_frame(
                    writer,
                    write_lock,
                    wire.error_frame(request_id, 400, str(error)),
                )
            else:
                task = asyncio.create_task(
                    self._serve_binary_request(
                        writer, write_lock, client, request_id, request,
                        self._take_slot(client, request),
                    )
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            header = await _read_exactly(reader, wire.HEADER_SIZE)

    def _take_slot(self, client: str, request):
        """Admission, decided where the connection loop reads a frame,
        before the request's task exists: a request that finishes on
        the loop before the next one starts still counts against
        ``max_queue`` / ``max_inflight`` while its pipelined successors
        are read.  Returns the running ``queue`` span (slot held until
        the reply is written), the :class:`ServerSaturated` to answer
        with, or None for an op admission does not count."""
        if (
            not isinstance(request, dict)
            or request.get("op", "query") not in _ADMITTED_OPS
        ):
            return None
        try:
            self.admission.acquire(client)
        except ServerSaturated as busy:
            return busy
        return Span("queue")

    async def _write_frame(self, writer, write_lock, frame: bytes) -> None:
        async with write_lock:
            writer.write(frame)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; nothing to do

    async def _respond(self, client: str, request: dict, admitted) -> dict:
        """Dispatch one request dict, mapping failures to the protocol's
        error envelopes (shared by both wire protocols).  ``admitted``
        is :meth:`_take_slot`'s verdict.  Also the request-latency
        measurement point: every dispatch lands in the op-labelled
        ``repro_request_seconds`` histogram, an admitted request's from
        its admission on."""
        op = _op_label(request)
        began = time.perf_counter()
        if isinstance(admitted, Span):
            # Admission to this task's first step is the request's
            # ``queue`` stage, so its stages still sum to its latency.
            admitted.finish()
            began -= admitted.duration_s
            current_trace().spans.append(admitted)
        try:
            if isinstance(admitted, ServerSaturated):
                raise admitted
            response = await self._dispatch(client, request)
        except ServerSaturated as busy:
            self._errors_total.labels(op=op).inc()
            response = {
                "ok": False,
                "status": 503,
                "error": str(busy),
                "scope": busy.scope,
                "retry_after": busy.retry_after,
            }
        except InjectedFault as fault:
            # Injected faults are transient by construction: answer
            # like admission control (503 + Retry-After) so clients
            # retry on the hint instead of treating a chaos-killed
            # worker or erroring backend as a bad request.
            self._errors_total.labels(op=op).inc()
            response = {
                "ok": False,
                "status": 503,
                "error": str(fault),
                "scope": "chaos",
                "retry_after": 0.05,
            }
        except (QueryError, ReproError) as error:
            self._errors_total.labels(op=op).inc()
            response = {"ok": False, "status": 400, "error": str(error)}
        except Exception as error:  # pragma: no cover - defensive
            self._errors_total.labels(op=op).inc()
            response = {
                "ok": False,
                "status": 500,
                "error": f"{type(error).__name__}: {error}",
            }
        self._request_seconds.labels(op=op).observe(
            time.perf_counter() - began
        )
        return response

    def _finish_trace(self, trace: Trace, response: dict) -> None:
        """Fold one finished request's spans into the stage histograms
        and park the trace in the ring.  A request that joined another's
        execution records its own view of the shared evaluate span — the
        part of it the request actually waited through (see
        :meth:`~repro.obs.Trace.attach_wait`) — which is what makes the
        per-stage means sum to the end-to-end mean."""
        trace.status = response.get("status")
        if "cached" in response:
            trace.cached = response.get("cached")
        observe = self._stage_seconds
        for entry in list(trace.spans):
            observe.labels(stage=entry.name).observe(entry.duration_s)
        self.traces.record(trace)

    async def _serve_request(
        self, writer, write_lock: asyncio.Lock, client: str, request, admitted
    ) -> None:
        """Answer one JSON-lines request (a dict, or the parse error to
        answer with); its admission slot is released once the reply is
        written."""
        try:
            request_id = None
            chaos = self.chaos
            if chaos is not None and chaos.decide("server.drop_connection"):
                # Injected connection drop: close without answering.  The
                # client sees EOF and reconnects — the transport-retry path
                # the soak invariants hold to "zero dropped requests".
                writer.close()
                return
            trace = None
            if isinstance(request, Exception):
                self._errors_total.labels(op="invalid").inc()
                response = {"ok": False, "status": 400, "error": str(request)}
            else:
                request_id = request.get("id")
                session = request.get("session")
                trace = Trace(
                    op=_op_label(request),
                    session=str(session) if session is not None else None,
                    trace_id=_adopt_trace_id(request.get("trace")),
                )
                with activate(trace):
                    response = await self._respond(client, request, admitted)
                response["trace"] = trace.hex_id
            response["id"] = request_id
            try:
                # Strict encoding: a non-serializable value in a response is
                # a server bug; answer 500 instead of shipping stringified
                # garbage (the old ``default=str`` failure mode).
                if trace is not None:
                    with trace.span("encode"):
                        payload = wire.encode_json_line(response)
                else:
                    payload = wire.encode_json_line(response)
            except wire.WireError as error:
                self._errors_total.labels(op="invalid").inc()
                payload = wire.encode_json_line(
                    {
                        "ok": False,
                        "status": 500,
                        "error": f"response not serializable: {error}",
                        "id": request_id,
                    }
                )
            if trace is not None:
                self._finish_trace(trace, response)
            async with write_lock:
                writer.write(payload)
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass  # client went away; nothing to do
        finally:
            if isinstance(admitted, Span):
                self.admission.release(client)

    async def _serve_binary_request(
        self,
        writer,
        write_lock: asyncio.Lock,
        client: str,
        request_id: int,
        request: dict,
        admitted,
    ) -> None:
        try:
            chaos = self.chaos
            if chaos is not None and chaos.decide("server.drop_connection"):
                # Injected drop, binary flavor: leave a *partial* frame on
                # the wire before closing so clients exercise the
                # mid-frame-failure path, not just clean EOF.
                async with write_lock:
                    writer.write(wire.truncated_frame())
                    writer.close()
                return
            # The incoming id's spare upper bits may carry a client trace
            # hint; the reply folds the server's own trace id back in.
            echo_id, client_hint = wire.split_trace_hint(request_id)
            session = request.get("session")
            trace = Trace(
                op=_op_label(request),
                session=str(session) if session is not None else None,
                trace_id=client_hint or None,
            )
            with activate(trace):
                response = await self._respond(client, request, admitted)
            response["trace"] = trace.hex_id
            opcode = wire.OP_REPLY if response.get("ok") else wire.OP_ERROR
            reply_id = wire.pack_trace_hint(echo_id, trace.hint)
            try:
                with trace.span("encode"):
                    frame = wire.encode_frame(opcode, reply_id, response)
            except wire.WireError as error:
                self._errors_total.labels(op="invalid").inc()
                frame = wire.error_frame(
                    reply_id, 500, f"response not serializable: {error}"
                )
            self._finish_trace(trace, response)
            await self._write_frame(writer, write_lock, frame)
        finally:
            if isinstance(admitted, Span):
                self.admission.release(client)

    async def _dispatch(self, client: str, request: dict) -> dict:
        op = request.get("op", "query")
        if op in _ADMITTED_OPS:
            # Admitted when its frame was read (:meth:`_take_slot`): one
            # slot per request, so a pipelined batch is one unit of
            # client-side concurrency however many statements it carries.
            began = time.perf_counter()
            try:
                if op == "query":
                    return await self._query(request)
                return await self._query_batch(request)
            finally:
                # Feeds the Retry-After hint's service-time EWMA.
                self.admission.observe(time.perf_counter() - began)
        self._requests_total.labels(op=_op_label(request)).inc()
        if op == "ping":
            return {
                "ok": True,
                "status": 200,
                "result": "pong",
                "version": self.version,
            }
        if op == "stats":
            return {"ok": True, "status": 200, "result": self.stats()}
        if op == "metrics":
            # One snapshot backs both views, so the Prometheus text and
            # the structured dict describe the same instant.
            snapshot = self.metrics.snapshot()
            result = {
                "prometheus": render_prometheus(snapshot),
                "snapshot": snapshot,
            }
            if request.get("include_traces"):
                result["traces"] = self.traces.snapshot()
            if request.get("include_slow"):
                result["slow_queries"] = self.slow_log.entries()
            return {
                "ok": True,
                "status": 200,
                "result": result,
                "version": self.version,
            }
        if op == "describe":
            generation = self._generation
            return {
                "ok": True,
                "status": 200,
                "result": generation.explorer.describe(),
                "version": generation.version,
            }
        if op == "reload":
            version = await self._reload_in_executor(
                version=request.get("version"), tag=request.get("tag")
            )
            return {"ok": True, "status": 200, "result": {"version": version}}
        raise QueryError(
            f"unknown op {op!r}; expected query, query_batch, ping, stats, "
            "metrics, describe, or reload"
        )

    # -- the query path ------------------------------------------------------
    async def _query(self, request: dict) -> dict:
        self._requests_total.labels(op="query").inc()
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise QueryError("query op needs a non-empty 'sql' string")
        answer = await self._answer(request, [sql])
        generation, session_name, (plan,), (payload,), (cached,) = answer
        self._maybe_slow_log(
            current_trace(), sql=sql, plan=plan, cached=cached,
            session=session_name, version=generation.version,
        )
        return {
            "ok": True,
            "status": 200,
            "result": payload,
            "cached": cached,
            "session": session_name,
            "version": generation.version,
        }

    def _maybe_slow_log(self, trace, *, sql, plan, cached, session,
                        version) -> None:
        """Record the in-flight request in the slow-query log when its
        elapsed time already crossed the threshold.  Runs before the
        encode stage — encode time for a slow query is dwarfed by the
        evaluate time that made it slow."""
        log = self.slow_log
        if not log.enabled or trace is None:
            return
        duration_s = trace.elapsed_s
        if duration_s * 1e3 < log.threshold_ms:
            return
        explain = None
        try:
            explain = plan.explain()
        except Exception:
            pass  # never let diagnostics fail the query
        if log.maybe_record(
            duration_s=duration_s,
            sql=sql,
            trace=trace,
            explain=explain,
            cached=cached,
            session=session,
            version=version,
        ):
            self._slow_total.inc()

    async def _query_batch(self, request: dict) -> dict:
        """Pipelined batch: every statement answered like ``query``
        against one pinned generation, with one evaluation for all the
        misses.  One response carries all results, so a client
        round-trip amortizes across the batch."""
        sqls = request.get("sqls")
        if not isinstance(sqls, (list, tuple)) or not sqls:
            raise QueryError("query_batch op needs a non-empty 'sqls' list")
        self._requests_total.labels(op="query_batch").inc(len(sqls))
        if not all(isinstance(sql, str) and sql.strip() for sql in sqls):
            raise QueryError("query_batch entries must be non-empty SQL strings")
        generation, session_name, _, payloads, cached_flags = (
            await self._answer(request, sqls)
        )
        return {
            "ok": True,
            "status": 200,
            "results": payloads,
            "cached": cached_flags,
            "session": session_name,
            "version": generation.version,
        }

    async def _answer(self, request: dict, sqls: list):
        """Plan ``sqls`` on the pinned generation, answer result-cache
        hits, and send every miss through the single-flight table — the
        misses no other request is evaluating run here, in one execution
        (:meth:`_evaluate`); the rest await the execution already in
        flight.  Returns ``(generation, session name, plans, payloads,
        cached flags)``."""
        session_name = str(request.get("session", "default"))
        generation = self._generation  # pin: reloads must not drop us
        plans = [generation.explorer.plan(sql) for sql in sqls]
        payloads: list = [None] * len(plans)
        cached_flags = [False] * len(plans)
        misses: list[tuple[int, tuple, object]] = []
        with stage_span("cache_lookup"):
            for index, plan in enumerate(plans):
                key = (generation.version, plan.cache_key)
                payload = self.cache.get(key)
                if payload is not None:
                    payloads[index] = payload
                    cached_flags[index] = True
                else:
                    misses.append((index, key, plan))
        answer = (generation, session_name, plans, payloads, cached_flags)
        if not misses:
            return answer
        trace = current_trace()
        wait = trace.begin("coalesce_wait") if trace else None
        outputs = await self.coalescer.submit_many(
            [(key, (generation, plan)) for _, key, plan in misses]
        )
        evaluated = [output for output in outputs if isinstance(output, _Evaluated)]
        if wait is not None and evaluated:
            if all(output.leader is trace for output in evaluated):
                # Evaluated by this request alone: nothing was waited on.
                trace.spans.append(evaluated[0].span)
            else:
                # Joined another request's execution: charged only for
                # the part of each shared span it waited through.
                trace.attach_wait(wait, [output.span for output in evaluated])
        for (index, _, _), output in zip(misses, outputs):
            if isinstance(output, BaseException):
                raise output
            payloads[index] = output.payload
        return answer

    async def _evaluate(self, items: list) -> list:
        """The coalescer's ``run_batch``, awaited by the request that
        found the misses.  An execution that is one polynomial pass per
        plan (:meth:`_runs_inline`) runs right here on the event loop:
        the kernel costs less than a thread hand-off, and the execution
        ends before any other request runs, so none can join it.  Any
        other execution takes one executor hop.  The chaos hooks are
        decided first, on the loop; a delay is awaited, never slept.  One
        evaluate span times it all, and every successful payload is
        wrapped in :class:`_Evaluated` carrying that span and the
        evaluating request's trace.  Exceptions stay unwrapped so the
        coalescer fails only their keys' waiters."""
        span = Span("evaluate", batch=len(items))
        try:
            await self._inject_backend_chaos()
            if self._runs_inline(items):
                outputs = self._execute_items(items)
            else:
                outputs = await asyncio.get_running_loop().run_in_executor(
                    None, self._execute_items, items
                )
        finally:
            span.finish()
        leader = current_trace()
        return [
            output
            if isinstance(output, BaseException)
            else _Evaluated(output, span, leader)
            for output in outputs
        ]

    async def _inject_backend_chaos(self) -> None:
        """The execution's chaos hooks, on the event loop: a
        ``server.worker_kill`` fault raises and the execution dies
        (every waiter on it gets a retryable 503), a ``server.backend``
        fault models a slow (awaited) or erroring backend call.  No
        injector attached — no effect."""
        chaos = self.chaos
        if chaos is not None:
            await chaos.act_async("server.worker_kill")
            await chaos.act_async("server.backend")

    def _runs_inline(self, items: list) -> bool:
        """Whether an execution runs on the event loop: every plan is
        routed to a model or to nothing (:data:`_INLINE_ROUTES`) and
        groups by at most one attribute.  Exact and generic backends
        scan rows, and a multi-attribute GROUP BY loops in Python over
        outer values; those keep the executor hop."""
        return all(
            plan.route.target in _INLINE_ROUTES and len(plan.query.group_by) <= 1
            for _, plan in items
        )

    def _execute_items(self, items: list) -> list:
        """One execution (on the loop or an executor thread, see
        :meth:`_evaluate`): the ``(generation, plan)`` misses of one
        request, so of one pinned generation.  Returns
        JSON-ready payloads, a failing query mapped to its exception
        instead of poisoning the others — each result is serialized and
        cached exactly once here, however many requests wait on it."""
        generation = items[0][0]
        plans = [plan for _, plan in items]
        payloads = self._execute_plans(generation, plans)
        for plan, payload in zip(plans, payloads):
            if not isinstance(payload, BaseException):
                self.cache.put((generation.version, plan.cache_key), payload)
        return payloads

    def _execute_plans(self, generation: _Generation, plans: list) -> list:
        """Payloads (or exceptions) of ``plans`` through the planner's
        batched executor; the cluster frontend overrides it to fan out."""
        planner = generation.explorer.planner
        try:
            outputs = planner.execute_many(plans)
        except Exception:
            # Retry singly so only the offending plan(s) fail.
            outputs = []
            for plan in plans:
                try:
                    outputs.append(planner.execute(plan))
                except Exception as error:
                    outputs.append(error)
        return [
            output if isinstance(output, BaseException) else result_payload(output)
            for output in outputs
        ]

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict:
        generation = self._generation
        # One registry snapshot backs every sub-report: all counters in
        # the payload describe the same instant, so derived figures
        # (hit rate, rejection ratios) can't tear across fields the way
        # per-field attribute reads under concurrent traffic could.
        snapshot = self.metrics.snapshot()
        return {
            "version": generation.version,
            "summary": generation.label,
            "requests": int(
                sample_value(snapshot, "repro_requests_total")
            ),
            "errors": int(sample_value(snapshot, "repro_errors_total")),
            "reloads": int(sample_value(snapshot, "repro_reloads_total")),
            "uptime_s": (
                round(time.monotonic() - self._started_at, 3)
                if self._started_at is not None
                else None
            ),
            "cache": self.cache.stats(snapshot),
            "admission": self.admission.stats(snapshot),
            "coalescer": self.coalescer.stats(snapshot),
            "watcher": (
                self.watcher.stats(snapshot)
                if self.watcher is not None
                else None
            ),
            "chaos": self.chaos.stats() if self.chaos is not None else None,
            "slow_queries": self.slow_log.stats(),
            "traces": len(self.traces),
        }

    def __repr__(self):
        return (
            f"SummaryServer({self._generation.label!r}, "
            f"{self.host}:{self.port})"
        )


class ServerThread:
    """Run a :class:`SummaryServer` on a daemon thread.

    The synchronous harness for tests, benchmarks, and the load
    generator::

        with ServerThread(server) as running:
            client = ServeClient(port=running.port)

    ``__enter__`` blocks until the socket is bound (so ``server.port``
    is real) and re-raises any startup failure in the caller's thread.
    """

    def __init__(self, server: SummaryServer):
        self.server = server
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._error: BaseException | None = None

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as error:  # surface in __enter__/stop
            self._error = error
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def start(self) -> SummaryServer:
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ReproError("server did not start within 30s")
        if self._error is not None:
            raise self._error
        return self.server

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=10)

    def __enter__(self) -> SummaryServer:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
