"""A small synchronous client for the serve protocols.

Used by the test suite, the CLI (``repro ping`` / ``repro bench-serve``)
and the load generator.  One client owns one TCP connection::

    with ServeClient(port=9876) as client:
        client.ping()
        payload = client.query("SELECT COUNT(*) FROM R WHERE x >= 3")
        print(payload["value"])

``call`` is ``receive(send(...))``.  The two halves are public so a
caller holding several clients can write every request before it blocks
on the first reply — the cluster frontend's scatter/gather over its
workers (:mod:`repro.serve.cluster`) — instead of one thread per
connection.

A transport failure — refused connect, EOF, short read, socket error,
timeout, framing error — raises :class:`TransportError` *after closing
the socket*, so the next call reconnects: a client outlives a dropped
connection (and a timeout between a frame's header and its body cannot
leave the next call reading mid-frame).  An ``ok: false`` *answer*
(400 / 503) raises plain :class:`ServeError` and keeps the connection.

The default transport is the length-prefixed binary protocol
(:mod:`repro.serve.wire`); pass ``protocol="json"`` for the
line-delimited JSON debug protocol.  Both speak to the same server —
it sniffs the first byte of each connection.  ``query_many`` pipelines
a whole batch of statements into one ``query_batch`` round trip.

A 503-style rejection raises :class:`ServerBusy` carrying the server's
``Retry-After`` hint; ``query(..., retries=N)`` sleeps on the hint and
retries — the honest-backpressure loop every well-behaved client of an
admission-controlled service runs.
"""

from __future__ import annotations

import json
import random
import socket
import time

from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.serve import wire


def backoff_delay(attempt: int, hint: float, rng: random.Random) -> float:
    """One retry delay: the server's Retry-After hint, floored by an
    exponential schedule, scaled by ±50% jitter.

    The jitter is the desynchronizer: without it, every client rejected
    by a saturated server receives the same hint, sleeps the same
    wall-clock interval, and stampedes back *in lockstep* — re-saturating
    the queue and starving everyone again (the thundering-herd loop
    ``tests/test_serve.py::TestClientBackoff`` reproduces).  Each client
    drawing from its own RNG spreads the herd across the window.
    """
    base = max(hint, 0.001 * (1.6 ** min(attempt, 20)))
    return base * rng.uniform(0.5, 1.5)


class ServeError(ReproError):
    """The server answered ``ok: false`` (:class:`TransportError`, the
    subclass: it did not answer at all).

    The server's backpressure fields ride along as attributes, so
    callers never re-parse ``payload``: ``retry_after`` (seconds, or
    ``None`` when the server gave no hint) and ``scope`` (``"queue"``,
    ``"client"``, ``"chaos"``, or ``None``).
    """

    def __init__(self, message: str, status: int = 0, payload: dict | None = None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}
        hint = self.payload.get("retry_after")
        self.retry_after = float(hint) if hint is not None else None
        self.scope = self.payload.get("scope")


class TransportError(ServeError):
    """No answer: the connection could not be made, or failed before a
    reply arrived.  The client has closed its socket; the next call
    reconnects."""


class ServerBusy(ServeError):
    """Admission control said no; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float, payload: dict):
        super().__init__(message, status=503, payload=payload)
        self.retry_after = retry_after


class ServeClient:
    """One synchronous connection to a :class:`SummaryServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 30.0,
        session: str = "default",
        protocol: str = "binary",
        backoff_seed: int | None = None,
        chaos=None,
    ):
        if port <= 0:
            raise ReproError(f"client needs a positive --port, got {port}")
        if protocol not in ("binary", "json"):
            raise ReproError(
                f"unknown protocol {protocol!r}; expected 'binary' or 'json'"
            )
        self.host = host
        self.port = int(port)
        self.protocol = protocol
        self.timeout = timeout
        self.session = session
        self._sock: socket.socket | None = None
        self._file = None
        self._next_id = 0
        # Per-client jitter stream: by default seeded from the system
        # entropy pool so concurrent clients desynchronize; pass
        # ``backoff_seed`` for reproducible retry schedules in tests.
        self._backoff_rng = random.Random(backoff_seed)
        #: Optional :class:`~repro.chaos.FaultInjector` — the
        #: ``client.drop_connection`` hook (flaky-network simulation).
        self._chaos = chaos
        #: Client-side observability: every 503 and every backoff sleep
        #: is counted here, so a load generator can report how much of
        #: its wall clock went to backpressure (scraped per client).
        self.metrics = MetricsRegistry()
        self._calls_total = self.metrics.counter(
            "repro_client_requests_total", "Requests sent, by op.", ("op",)
        )
        self._busy_total = self.metrics.counter(
            "repro_client_busy_total",
            "503 rejections received, by server-reported scope.",
            ("scope",),
        )
        self._retries_total = self.metrics.counter(
            "repro_client_retries_total",
            "Backoff-and-retry cycles actually slept through.",
        )

    # -- connection --------------------------------------------------------
    def connect(self) -> "ServeClient":
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as error:
                raise TransportError(
                    f"transport error: cannot connect to "
                    f"{self.host}:{self.port}: {error}"
                ) from error
            self._file = self._sock.makefile("rb")
        return self

    def _dropped(self, message: str) -> TransportError:
        """Close the failed connection (the next call reconnects) and
        build the error to raise."""
        self.close()
        return TransportError(message)

    def _closed_by_server(self) -> TransportError:
        return self._dropped(
            f"server {self.host}:{self.port} closed the connection"
        )

    def _failed(self, error: Exception) -> TransportError:
        return self._dropped(
            f"transport error talking to {self.host}:{self.port}: {error}"
        )

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- protocol ----------------------------------------------------------
    def call(self, op: str, **fields) -> dict:
        """Send one request, return the raw response envelope.

        Raises :class:`ServerBusy` on 503, :class:`ServeError` on any
        other ``ok: false`` answer and :class:`TransportError` when no
        answer arrived.
        """
        return self.receive(self.send(op, **fields))

    def send(self, op: str, **fields) -> int:
        """Write one request (connecting first if need be); returns the
        request id :meth:`receive` takes."""
        self.connect()
        if self._chaos is not None and self._chaos.decide(
            "client.drop_connection"
        ):
            # Injected client-side drop: tear the connection down and
            # surface a transport error, exactly like a flaky network.
            raise self._dropped(
                f"chaos: injected client-side connection drop to "
                f"{self.host}:{self.port}"
            )
        self._next_id += 1
        request_id = self._next_id
        self._calls_total.labels(op=op).inc()
        try:
            if self.protocol == "binary":
                data = wire.encode_request({"op": op, **fields}, request_id)
            else:
                request = {"id": request_id, "op": op, **fields}
                data = json.dumps(request).encode() + b"\n"
            self._socket().sendall(data)
        except (OSError, ValueError, wire.WireError) as error:
            raise self._failed(error) from error
        return request_id

    def receive(self, request_id: int) -> dict:
        """Block for the reply to ``request_id`` (at most
        :attr:`timeout` seconds per socket read) and return its
        envelope, or raise as :meth:`call` does."""
        try:
            response = self._read_reply(request_id)
        except (OSError, ValueError, wire.WireError) as error:
            raise self._failed(error) from error
        if response.get("ok"):
            return response
        status = int(response.get("status", 0))
        message = response.get("error", "server error")
        if status == 503:
            self._busy_total.labels(
                scope=str(response.get("scope") or "unknown")
            ).inc()
            raise ServerBusy(
                message,
                retry_after=float(response.get("retry_after", 0.01)),
                payload=response,
            )
        raise ServeError(message, status=status, payload=response)

    def _socket(self) -> socket.socket:
        """The connected socket, brought up to the current
        :attr:`timeout` (assign it to change later calls' waits)."""
        sock = self._sock
        if sock is None:
            raise TransportError(f"not connected to {self.host}:{self.port}")
        if sock.gettimeout() != self.timeout:
            sock.settimeout(self.timeout)
        return sock

    def _read_reply(self, request_id: int) -> dict:
        self._socket()
        if self.protocol == "json":
            while True:
                line = self._file.readline()
                if not line:
                    raise self._closed_by_server()
                response = json.loads(line)
                if response.get("id") in (request_id, None):
                    return response
        while True:
            header = self._read_frame_bytes(wire.HEADER_SIZE)
            opcode, length, reply_id = wire.decode_header(header)
            body = self._read_frame_bytes(length)
            # The server echoes our id in the low 32 bits and rides
            # its trace-id hint in the spare upper bits.
            echo_id, trace_hint = wire.split_trace_hint(reply_id)
            if echo_id == request_id:
                response = wire.unpackb(body)
                if trace_hint and "trace" not in response:
                    response["trace"] = format(trace_hint, "016x")
                return response
            if echo_id == 0 and opcode == wire.OP_ERROR:
                # Connection-level error: the server is about to
                # close; there will be no frame with our id.
                self.close()
                return wire.unpackb(body)

    def _read_frame_bytes(self, count: int) -> bytes:
        data = self._file.read(count)
        if data is None or len(data) != count:
            raise self._closed_by_server()
        return data

    # -- convenience wrappers ----------------------------------------------
    def query(
        self,
        sql: str,
        *,
        session: str | None = None,
        retries: int = 0,
        deadline_s: float | None = None,
    ) -> dict:
        """Run one SQL query; returns the result payload dict.

        Scalars: ``{"kind": "scalar", "value": ..., "std", "ci95"}``.
        Grouped: ``{"kind": "rows", "group_by": [...], "rows": [...]}``.
        ``retries`` > 0 backs off on the server's ``Retry-After`` hint
        when admission control rejects, with an exponential floor (so a
        hint that undershoots the true service time cannot make the
        client spin through its retry budget) and ±50% jitter (so a
        fleet of rejected clients cannot stampede back in lockstep —
        see :func:`backoff_delay`).  ``deadline_s`` bounds the *total*
        wall clock across all retries: once the next backoff would
        overrun it, the last :class:`ServerBusy` is raised instead of
        sleeping — a saturated server cannot hold a client hostage for
        ``retries × Retry-After`` seconds.
        """
        attempts = max(int(retries), 0) + 1
        deadline = (
            None if deadline_s is None else time.monotonic() + float(deadline_s)
        )
        for attempt in range(attempts):
            try:
                response = self.call(
                    "query", sql=sql, session=session or self.session
                )
                return wire.client_view(response["result"])
            except ServerBusy as busy:
                if attempt == attempts - 1:
                    raise
                delay = backoff_delay(
                    attempt, busy.retry_after, self._backoff_rng
                )
                if deadline is not None and time.monotonic() + delay > deadline:
                    raise  # total retry budget exhausted
                self._retries_total.inc()
                time.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def query_many(
        self,
        sqls: list,
        *,
        session: str | None = None,
        retries: int = 0,
        deadline_s: float | None = None,
    ) -> list:
        """Pipeline a batch of statements in one ``query_batch`` round
        trip; returns one result payload per statement, in order.  The
        whole batch costs one admission slot and one network round trip
        — the high-throughput path for bulk query streams.  Retry
        semantics match :meth:`query` (the batch retries as a unit)."""
        attempts = max(int(retries), 0) + 1
        deadline = (
            None if deadline_s is None else time.monotonic() + float(deadline_s)
        )
        for attempt in range(attempts):
            try:
                response = self.call(
                    "query_batch",
                    sqls=list(sqls),
                    session=session or self.session,
                )
                return [
                    wire.client_view(result) for result in response["results"]
                ]
            except ServerBusy as busy:
                if attempt == attempts - 1:
                    raise
                delay = backoff_delay(
                    attempt, busy.retry_after, self._backoff_rng
                )
                if deadline is not None and time.monotonic() + delay > deadline:
                    raise  # total retry budget exhausted
                self._retries_total.inc()
                time.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def count(self, sql: str, **kwargs) -> float:
        """Scalar shortcut: the ``value`` of a scalar query payload."""
        payload = self.query(sql, **kwargs)
        if payload.get("kind") != "scalar":
            raise ServeError(f"query is not scalar: {sql!r}")
        return float(payload["value"])

    def ping(self) -> dict:
        """Round-trip health check; returns ``{"version": ...}``."""
        response = self.call("ping")
        return {"version": response.get("version")}

    def stats(self) -> dict:
        return self.call("stats")["result"]

    def server_metrics(
        self, *, include_traces: bool = False, include_slow: bool = False
    ) -> dict:
        """The server's metrics view: ``{"prometheus": <text>,
        "snapshot": <dict>}`` plus recent traces / slow-query entries
        on request."""
        fields: dict = {}
        if include_traces:
            fields["include_traces"] = True
        if include_slow:
            fields["include_slow"] = True
        return self.call("metrics", **fields)["result"]

    def describe(self) -> dict:
        return self.call("describe")["result"]

    def reload(self, version: int | None = None, tag: str | None = None) -> int:
        """Ask the server to hot-swap a store version; returns it."""
        fields: dict = {}
        if version is not None:
            fields["version"] = version
        if tag is not None:
            fields["tag"] = tag
        return int(self.call("reload", **fields)["result"]["version"])

    def __repr__(self):
        state = "connected" if self._sock is not None else "disconnected"
        return f"ServeClient({self.host}:{self.port}, {state})"
