"""The serving layer: summaries as a concurrent network service.

Everything below this package answers queries for *one in-process
caller*; this package multiplexes many concurrent clients onto those
same shared structures:

* :class:`SummaryServer` / :class:`ServeConfig` — asyncio TCP server
  planning every client's queries through one cached
  :class:`~repro.api.Explorer` per loaded version, with hot reload of store
  versions (``SIGHUP`` or the ``reload`` op); speaks the binary
  framed protocol (:mod:`repro.serve.wire`) and line-delimited JSON
  on the same port (first-byte sniff per connection);
* :class:`Coalescer` — single-flight table: a request whose canonical
  key is already being evaluated awaits that execution;
* :class:`TTLCache` — the process-wide result cache keyed on
  ``(store version, canonical predicate key)``;
* :class:`AdmissionController` / :class:`ServerSaturated` —
  backpressure with ``Retry-After`` hints;
* :class:`ServeClient` / :class:`ServerBusy` / :class:`TransportError`
  — the synchronous client (reconnects after a dropped connection);
* :class:`StoreWatcher` — auto hot-reload when the ingest pipeline
  publishes a newer store version (``repro serve --watch``);
* :func:`run_load` / :class:`LoadReport` — the closed-loop load
  generator behind ``repro bench-serve``;
* :class:`ClusterCoordinator` / :class:`ShardWorkerServer` — the
  multi-worker tier (``repro serve --workers N``): a frontend that
  fans shard-pruned plans out to shard-affine worker processes over
  the binary protocol and merges the partial aggregates
  (:mod:`repro.serve.cluster`, docs/serving.md).

See ``docs/serving.md`` for the lifecycle and tuning guide.
"""

from repro.serve import wire
from repro.serve.admission import AdmissionController, ServerSaturated
from repro.serve.cache import TTLCache
from repro.serve.client import (
    ServeClient,
    ServeError,
    ServerBusy,
    TransportError,
)
from repro.serve.cluster import (
    ClusterCoordinator,
    ShardWorkerServer,
    WorkerSpec,
)
from repro.serve.coalescer import Coalescer
from repro.serve.loadgen import LoadReport, run_load
from repro.serve.server import (
    ServeConfig,
    ServerThread,
    SummaryServer,
    result_payload,
)
from repro.serve.watcher import StoreWatcher
from repro.serve.wire import WireError, WireVersionError

__all__ = [
    "AdmissionController",
    "ClusterCoordinator",
    "Coalescer",
    "LoadReport",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerBusy",
    "ServerSaturated",
    "ServerThread",
    "ShardWorkerServer",
    "StoreWatcher",
    "SummaryServer",
    "WorkerSpec",
    "TTLCache",
    "TransportError",
    "WireError",
    "WireVersionError",
    "result_payload",
    "run_load",
    "wire",
]
