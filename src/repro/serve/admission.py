"""Admission control: bounded queues, per-client fairness, fast 503s.

The serving layer's contract with interactive clients is *low latency
or an honest no* — queuing a request the server cannot serve soon just
converts overload into timeout storms.  Admission is decided before a
request costs anything:

* **global depth** — at most ``max_queue`` admitted-but-unfinished
  requests across the whole server; past that, new work is rejected
  with a 503-style error carrying a ``Retry-After`` hint sized to the
  backlog;
* **per-client in-flight limit** — one client pipelining hundreds of
  requests cannot starve the rest; past ``max_inflight`` its own
  requests bounce (its fault, its hint) while other clients keep
  being admitted.

The controller only counts; the coalescer and executor do the work.
Its counters live in the shared :class:`~repro.obs.MetricsRegistry`
(rejections labelled by scope), so saturation shows up on the same
Prometheus scrape as the latency it causes.
"""

from __future__ import annotations

import threading

from repro.errors import ReproError
from repro.obs import MetricsRegistry, sample_value


class ServerSaturated(ReproError):
    """Admission rejected a request; retry after ``retry_after`` seconds.

    ``scope`` is ``"queue"`` (global backlog full) or ``"client"`` (the
    caller exceeded its own in-flight allowance).
    """

    def __init__(self, message: str, retry_after: float, scope: str):
        super().__init__(message)
        self.retry_after = retry_after
        self.scope = scope


class AdmissionController:
    """Counts in-flight work and rejects past the configured bounds.

    The ``Retry-After`` hint is the backlog times the observed service
    time per request (an EWMA fed by :meth:`observe`), never less than
    ``retry_floor`` seconds per request.  It is pessimistic on purpose
    — the backlog is served as if one request at a time — so a
    well-behaved client backs off enough to actually get in, and a slow
    backend produces honest, larger hints.
    """

    def __init__(
        self,
        max_queue: int = 64,
        max_inflight_per_client: int = 16,
        retry_floor: float = 0.002,
        metrics: MetricsRegistry | None = None,
    ):
        if max_queue < 1:
            raise ReproError(f"max_queue must be >= 1, got {max_queue}")
        if max_inflight_per_client < 1:
            raise ReproError(
                "max_inflight_per_client must be >= 1, "
                f"got {max_inflight_per_client}"
            )
        self.max_queue = int(max_queue)
        self.max_inflight_per_client = int(max_inflight_per_client)
        self.retry_floor = float(retry_floor)
        # EWMA of observed service time: starts at the floor
        # (optimistic) and adapts as completions stream in.
        self._service_ewma = self.retry_floor
        self._lock = threading.Lock()
        self._depth = 0
        self._per_client: dict[str, int] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._admitted = self.metrics.counter(
            "repro_admission_admitted_total", "Requests admitted."
        )
        self._rejected = self.metrics.counter(
            "repro_admission_rejected_total",
            "Requests rejected, by scope (queue = global backlog full, "
            "client = caller over its in-flight allowance).",
            ("scope",),
        )
        self._rejected_queue = self._rejected.labels(scope="queue")
        self._rejected_client = self._rejected.labels(scope="client")
        self._depth_gauge = self.metrics.gauge(
            "repro_admission_depth", "Admitted-but-unfinished requests."
        )
        self._peak_depth = self.metrics.gauge(
            "repro_admission_peak_depth", "Highest depth ever admitted."
        )

    # -- hints ------------------------------------------------------------
    def observe(self, seconds: float) -> None:
        """Feed one completed request's service time into the hint."""
        with self._lock:
            self._service_ewma = 0.8 * self._service_ewma + 0.2 * max(
                seconds, 0.0
            )

    def _retry_after(self, backlog: int) -> float:  # repro: holds[_lock]
        """Seconds until the backlog plausibly drains (>= the floor).

        Both callers sit inside :meth:`acquire`'s ``with self._lock``
        block — the EWMA read here is guarded by that caller-held lock.
        """
        per_request = max(self.retry_floor, self._service_ewma)
        return round(max(per_request, backlog * per_request), 4)

    # -- admission --------------------------------------------------------
    def acquire(self, client: str) -> None:
        """Admit one request for ``client`` or raise :class:`ServerSaturated`.

        Every successful ``acquire`` must be paired with a ``release``
        (use :meth:`held` for the context-manager form).
        """
        with self._lock:
            if self._depth >= self.max_queue:
                self._rejected_queue.inc()
                raise ServerSaturated(
                    f"server saturated: {self._depth} requests queued "
                    f"(max_queue={self.max_queue})",
                    self._retry_after(self._depth),
                    scope="queue",
                )
            inflight = self._per_client.get(client, 0)
            if inflight >= self.max_inflight_per_client:
                self._rejected_client.inc()
                raise ServerSaturated(
                    f"client {client} has {inflight} requests in flight "
                    f"(max_inflight_per_client="
                    f"{self.max_inflight_per_client})",
                    self._retry_after(inflight),
                    scope="client",
                )
            self._depth += 1
            self._per_client[client] = inflight + 1
            self._admitted.inc()
            self._depth_gauge.set(self._depth)
            self._peak_depth.set_max(self._depth)

    def release(self, client: str) -> None:
        with self._lock:
            self._depth -= 1
            remaining = self._per_client.get(client, 1) - 1
            if remaining <= 0:
                self._per_client.pop(client, None)
            else:
                self._per_client[client] = remaining
            self._depth_gauge.set(self._depth)

    class _Held:
        __slots__ = ("controller", "client")

        def __init__(self, controller, client):
            self.controller = controller
            self.client = client

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.controller.release(self.client)

    def held(self, client: str) -> "_Held":
        """``with admission.held(client):`` — acquire now, release on exit."""
        self.acquire(client)
        return self._Held(self, client)

    # -- introspection ----------------------------------------------------
    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    @property
    def admitted(self) -> int:
        return int(self._admitted.value)

    @property
    def rejected_queue(self) -> int:
        return int(self._rejected_queue.value)

    @property
    def rejected_client(self) -> int:
        return int(self._rejected_client.value)

    @property
    def peak_depth(self) -> int:
        return int(self._peak_depth.value)

    def stats(self, snapshot: dict | None = None) -> dict:
        if snapshot is None:
            snapshot = self.metrics.snapshot()
        with self._lock:
            clients_in_flight = len(self._per_client)
        return {
            "depth": int(sample_value(snapshot, "repro_admission_depth")),
            "max_queue": self.max_queue,
            "max_inflight_per_client": self.max_inflight_per_client,
            "clients_in_flight": clients_in_flight,
            "admitted": int(
                sample_value(snapshot, "repro_admission_admitted_total")
            ),
            "rejected_queue": int(
                sample_value(
                    snapshot,
                    "repro_admission_rejected_total",
                    {"scope": "queue"},
                )
            ),
            "rejected_client": int(
                sample_value(
                    snapshot,
                    "repro_admission_rejected_total",
                    {"scope": "client"},
                )
            ),
            "peak_depth": int(
                sample_value(snapshot, "repro_admission_peak_depth")
            ),
        }

    def __repr__(self):
        return (
            f"AdmissionController(depth={self.depth}/{self.max_queue}, "
            f"per_client<={self.max_inflight_per_client})"
        )
