"""Closed-loop load generator for the serving layer.

Drives K concurrent clients (threads, one TCP connection and one named
session each) through a shared workload of SQL texts, honoring the
server's admission control (503s back off on the ``Retry-After`` hint
and retry), and reports throughput, latency quantiles, and the
server-side cache hit rate over exactly this run.

Used by ``repro bench-serve`` and ``benchmarks/bench_serve.py`` — the
acceptance benchmark that measures the shared result cache against
serving without one.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.serve.client import (
    ServeClient,
    ServeError,
    ServerBusy,
    backoff_delay,
)


@dataclass
class LoadReport:
    """What one load run measured (all latencies in milliseconds)."""

    clients: int
    requests: int
    errors: int
    busy_backoffs: int
    seconds: float
    qps: float
    p50_ms: float
    p95_ms: float
    max_ms: float
    cache_hit_rate: float
    server: dict = field(default_factory=dict)

    def to_metrics(self) -> dict:
        """Flat numeric dict (the benchmark emitter's currency)."""
        return {
            "clients": self.clients,
            "requests": self.requests,
            "errors": self.errors,
            "busy_backoffs": self.busy_backoffs,
            "seconds": round(self.seconds, 4),
            "qps": round(self.qps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
        }

    def describe(self) -> str:
        return (
            f"{self.clients} clients x {self.requests // max(self.clients, 1)} "
            f"requests: {self.qps:.0f} q/s, p50 {self.p50_ms:.2f} ms, "
            f"p95 {self.p95_ms:.2f} ms, hit rate {self.cache_hit_rate:.0%}, "
            f"{self.busy_backoffs} backoffs, {self.errors} errors"
        )


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


def run_load(
    host: str,
    port: int,
    workload: list[str],
    *,
    clients: int = 8,
    requests_per_client: int = 50,
    timeout: float = 60.0,
    protocol: str = "binary",
    pipeline: int = 1,
) -> LoadReport:
    """Run the closed-loop load and gather the report.

    Each client walks the workload from its own offset (so concurrent
    clients overlap on the same queries — the repeated-workload mix
    single-flight and the shared cache exist for), sending the next
    request as soon as the previous answer lands.  ``protocol`` picks
    the wire format; ``pipeline`` > 1 sends that many statements per
    ``query_batch`` round trip (per-query latency is then the batch
    round trip amortized over its statements).
    """
    if not workload:
        raise ServeError("load generator needs a non-empty workload")
    pipeline = max(int(pipeline), 1)
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors = [0] * clients
    backoffs = [0] * clients
    start_barrier = threading.Barrier(clients + 1)

    def worker(index: int) -> None:
        # Per-worker jitter stream: K rejected workers must not sleep
        # the same hint and stampede back in lockstep.
        rng = random.Random(index)
        with ServeClient(
            host,
            port,
            timeout=timeout,
            session=f"load-{index}",
            protocol=protocol,
        ) as client:
            client.ping()  # connect before the clock starts
            start_barrier.wait()
            for step in range(0, requests_per_client, pipeline):
                width = min(pipeline, requests_per_client - step)
                sqls = [
                    workload[(index * 7 + step + lane) % len(workload)]
                    for lane in range(width)
                ]
                begin = time.perf_counter()
                attempt = 0
                while True:
                    try:
                        if width == 1:
                            client.query(sqls[0])
                        else:
                            client.query_many(sqls)
                        # Only served round-trips count toward the
                        # latency quantiles and QPS; a pipelined batch
                        # amortizes its round trip over its statements.
                        each = (time.perf_counter() - begin) / width
                        latencies[index].extend([each] * width)
                        break
                    except ServerBusy as busy:
                        backoffs[index] += 1
                        time.sleep(
                            backoff_delay(attempt, busy.retry_after, rng)
                        )
                        attempt += 1
                    except ServeError:
                        errors[index] += width
                        break

    # The observer speaks the same protocol as the workers — a
    # JSON-only server (``serve --protocol json``) closes binary
    # connections on the first byte.
    with ServeClient(host, port, timeout=timeout, protocol=protocol) as observer:
        before = observer.stats()["cache"]
        threads = [
            threading.Thread(target=worker, args=(index,), daemon=True)
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        start_barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        after = observer.stats()["cache"]

    flat = sorted(value * 1e3 for batch in latencies for value in batch)
    lookups = (after["hits"] + after["misses"]) - (
        before["hits"] + before["misses"]
    )
    hit_rate = (after["hits"] - before["hits"]) / lookups if lookups else 0.0
    served = sum(len(batch) for batch in latencies)
    failed = sum(errors)
    return LoadReport(
        clients=clients,
        requests=served + failed,  # attempted; QPS counts served only
        errors=failed,
        busy_backoffs=sum(backoffs),
        seconds=elapsed,
        qps=served / elapsed if elapsed > 0 else 0.0,
        p50_ms=_quantile(flat, 0.50),
        p95_ms=_quantile(flat, 0.95),
        max_ms=flat[-1] if flat else 0.0,
        cache_hit_rate=hit_rate,
        server={"cache_before": before, "cache_after": after},
    )


def default_workload(schema) -> list[str]:
    """A repeated-workload mix derived from a schema.

    Point lookups on every attribute plus range scans (and their
    syntactic ``BETWEEN`` variants) on the numeric ones — a stand-in
    for the dashboard-style traffic interactive serving sees: many
    clients, few distinct questions, lots of spelling variety.
    """
    queries = ["SELECT COUNT(*) FROM R"]
    for attr in schema.attribute_names[:4]:
        labels = schema.domain(attr).labels
        middle = labels[len(labels) // 2]
        if isinstance(middle, str):
            queries.append(f"SELECT COUNT(*) FROM R WHERE {attr} = '{middle}'")
            continue
        if not isinstance(middle, int) or isinstance(middle, bool):
            # Binned attributes carry interval labels that SQL text
            # cannot spell; leave them to predicate-level callers.
            continue
        queries.append(f"SELECT COUNT(*) FROM R WHERE {attr} = {middle}")
        queries.append(f"SELECT COUNT(*) FROM R WHERE {attr} >= {middle}")
        queries.append(
            f"SELECT COUNT(*) FROM R WHERE {attr} BETWEEN {labels[0]} "
            f"AND {middle}"
        )
        # The same range spelled as paired comparisons: canonically
        # equal, so it coalesces and caches with the BETWEEN form.
        queries.append(
            f"SELECT COUNT(*) FROM R WHERE {attr} >= {labels[0]} "
            f"AND {attr} <= {middle}"
        )
    return queries
