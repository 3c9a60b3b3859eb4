"""Process-wide TTL + LRU result cache for the serving layer.

One cache is shared by every client the server answers: entries key on
``(store version, canonical predicate key)``, so

* syntactic variants of one query from *different* clients share one
  entry (the canonical key already collapses them, see
  :mod:`repro.plan.canonical`);
* a hot reload to a new store version naturally stops hitting the old
  generation's entries — no invalidation sweep, the old keys just age
  out of the LRU;
* every entry expires after ``ttl`` seconds, bounding how stale an
  answer can be if the underlying data is re-summarized in place.

The cache is thread-safe (the server's executor threads and the event
loop both touch it).  Its hit/miss/evict/expire counters live in an
:class:`~repro.obs.MetricsRegistry` — the server passes its shared
registry so one Prometheus scrape (and one ``stats`` snapshot) covers
every component consistently; standalone caches get a private one.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Hashable

from repro.obs import MetricsRegistry, sample_value


class TTLCache:
    """LRU-bounded map whose entries expire ``ttl`` seconds after
    insertion.

    ``maxsize=0`` disables storage (every ``get`` misses); ``ttl=None``
    disables expiry (pure LRU).  ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        maxsize: int = 2048,
        ttl: float | None = 60.0,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
    ):
        self.maxsize = max(int(maxsize), 0)
        self.ttl = None if ttl is None else float(ttl)
        self.clock = clock
        self._data: OrderedDict[Hashable, tuple[float | None, object]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter(
            "repro_cache_hits_total", "Result-cache lookups answered."
        )
        self._misses = self.metrics.counter(
            "repro_cache_misses_total",
            "Result-cache lookups that missed (including expiries).",
        )
        self._evictions = self.metrics.counter(
            "repro_cache_evictions_total", "Entries dropped by the LRU bound."
        )
        self._expirations = self.metrics.counter(
            "repro_cache_expirations_total", "Entries dropped past their TTL."
        )
        self._size = self.metrics.gauge(
            "repro_cache_size", "Entries currently cached."
        )

    def get(self, key: Hashable):
        """The cached value, or ``None`` on miss/expiry."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self._misses.inc()
                return None
            expires_at, value = entry
            if expires_at is not None and self.clock() >= expires_at:
                del self._data[key]
                self._expirations.inc()
                self._misses.inc()
                self._size.set(len(self._data))
                return None
            self._data.move_to_end(key)
            self._hits.inc()
            return value

    def put(self, key: Hashable, value) -> None:
        if not self.maxsize:
            return
        expires_at = None if self.ttl is None else self.clock() + self.ttl
        with self._lock:
            self._data[key] = (expires_at, value)
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions.inc()
            self._size.set(len(self._data))

    def clear(self) -> None:
        """Drop every entry; counters keep accumulating."""
        with self._lock:
            self._data.clear()
            self._size.set(0)

    def __len__(self):
        with self._lock:
            return len(self._data)

    # Counter attributes kept as read properties — the registry is the
    # single writer, these are the stable introspection surface.
    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    @property
    def expirations(self) -> int:
        return int(self._expirations.value)

    @property
    def hit_rate(self) -> float:
        """Hits / lookups since construction (0.0 when never queried).

        Computed from one registry snapshot: reading ``hits`` and
        ``misses`` as separate locked reads while executor threads
        count lookups can observe a torn pair and report a rate above
        1.0.
        """
        snapshot = self.metrics.snapshot()
        hits = sample_value(snapshot, "repro_cache_hits_total")
        misses = sample_value(snapshot, "repro_cache_misses_total")
        lookups = hits + misses
        return hits / lookups if lookups else 0.0

    def stats(self, snapshot: dict | None = None) -> dict:
        """Counter view from **one** registry snapshot (callers holding
        a whole-server snapshot pass it in, so every component's stats
        describe the same instant)."""
        if snapshot is None:
            snapshot = self.metrics.snapshot()
        hits = sample_value(snapshot, "repro_cache_hits_total")
        misses = sample_value(snapshot, "repro_cache_misses_total")
        lookups = hits + misses
        return {
            "size": int(sample_value(snapshot, "repro_cache_size")),
            "maxsize": self.maxsize,
            "ttl": self.ttl,
            "hits": int(hits),
            "misses": int(misses),
            "evictions": int(
                sample_value(snapshot, "repro_cache_evictions_total")
            ),
            "expirations": int(
                sample_value(snapshot, "repro_cache_expirations_total")
            ),
            "hit_rate": round(hits / lookups if lookups else 0.0, 4),
        }

    def __repr__(self):
        return (
            f"TTLCache(size={len(self)}/{self.maxsize}, ttl={self.ttl}, "
            f"hit_rate={self.hit_rate:.2f})"
        )
