"""Multi-worker serving tier: a frontend plus shard-affine workers.

One :class:`~repro.serve.server.SummaryServer` is one process: a crash
or a stall in evaluation takes every client with it.  This module
promotes ``serve/`` to the LSST shape — partition, replicate, route,
degrade gracefully — without rewriting the stack underneath (the
OrpheusDB bolt-on philosophy): the :class:`ClusterCoordinator` is a
``SummaryServer`` whose *evaluation* step fans out to worker processes
instead of touching a backend.  What that buys is failure isolation;
on the repo's benchmark it costs latency and CPU against one process
(docs/serving.md has the numbers).

Topology::

    clients ──> ClusterCoordinator (frontend)
                 │ parse / canonicalize / route / cache / single-flight
                 │ live_shards ∩ shard→worker assignment
                 ├──binary wire──> ShardWorkerServer 0  (shards 0,1)
                 ├──binary wire──> ShardWorkerServer 1  (shards 2,3)
                 └──binary wire──> ...                  (spawn procs)

* **Sharding** — each worker process owns a balanced, contiguous slice
  of the :class:`~repro.core.sharding.ShardedSummary`'s shards (plus
  the replicas of its neighbours' slices) and evaluates them in one
  :class:`~repro.core.arena.ShardArena` over exactly those shards
  (:class:`ShardSlice`) — the evaluator a single process uses, so there
  is no second copy of narrow / evaluate / merge to keep in step.
* **Routing** — the frontend plans every query once; the planner's
  ``live_shards`` pruning picks the shards that can contribute, and a
  consistent-hash ring over the canonical cache key picks which
  replica owner answers each shard (:class:`HashRing`): repeats of a
  query land on the same worker, and a worker death only remaps the
  keys it served.
* **Fan-out** — a scatter/gather on the thread that runs the evaluation
  (:meth:`ClusterCoordinator._exchange`): write every worker's
  ``partial_batch`` request, then read the replies in turn, so workers
  compute concurrently while that one thread blocks in ``recv``.
  Connections are kept — an idle list of :class:`ServeClient` channels
  per worker *incarnation*, checked out for a round so no two evaluations
  share a socket — and a worker answers on its event loop, not in an
  executor: it has one client and a partial is a GIL-bound fraction of
  a millisecond, so ``ping`` / ``stats`` just wait behind a batch.
* **Merging** — a fan-out item names the global indices of the shards
  a worker should count; that is the arena's shard *selection*, and
  the worker returns the arena's own merge over it.  Partial sums over
  disjoint selections add up to the whole answer, so the frontend
  (:func:`merge_partials`) only finishes the sum: COUNT/SUM
  expectations add, variances add in quadrature, AVG is the merged
  ratio estimator, and GROUP BY index keys become labels, then ORDER /
  LIMIT, only after the global merge.
* **Degradation** — a worker that cannot be reached (even on a fresh
  connection, within the round's one ``worker_timeout`` deadline) is
  suspected and its shards go to their next live owner; an *answered*
  error fails its plans and leaves the worker live.  When every owner
  of a live shard is gone the frontend still answers: the shard
  contributes a uniform prior over its row count (expectation ``t/2``,
  variance ``t²/12``), the bounds widen, and the payload carries
  ``degraded: true``.  Requests are never dropped; the monitor thread
  respawns dead workers and the ``repro_cluster_*`` metrics record
  every death, respawn, reconnect and degraded answer.

Everything client-facing is inherited unchanged: admission control,
single-flight evaluation, the versioned result cache, hot reload
(``reload`` fans out to the pool), tracing, and both wire protocols.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import multiprocessing
import os
import queue as queue_module
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.api.explorer import Explorer
from repro.core.arena import QueryEstimate, ShardArena
from repro.core.sharding import ShardedSummary
from repro.core.summary import EntropySummary
from repro.errors import QueryError, ReproError
from repro.obs import sample_value
from repro.query.linear import numeric_weights
from repro.query.results import QueryResult, ordered_rows
from repro.serve.client import ServeClient, ServeError, TransportError
from repro.serve.server import (
    ServeConfig,
    SummaryServer,
    _Generation,
    result_payload,
)

#: Environment variable naming a directory for worker stdout/stderr
#: logs (one ``worker-<id>.log`` each) — the cluster-smoke CI job sets
#: it so a failing run uploads diagnosable worker output.
LOG_DIR_ENV = "REPRO_CLUSTER_LOG_DIR"

_BOOT_TIMEOUT_S = 60.0
_MONITOR_INTERVAL_S = 0.25


def _hash64(text: str) -> int:
    """Deterministic 64-bit hash (stable across processes and runs —
    builtin ``hash`` is salted per interpreter)."""
    return int.from_bytes(
        hashlib.blake2b(text.encode(), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent-hash ring over worker ids (virtual nodes).

    The coordinator keys the ring with each query's canonical cache
    key: among a shard's replica owners, the owner closest clockwise
    to the key's point answers.  Repeats of a query therefore land on
    the same worker (plan/session-cache affinity), and a worker death
    only remaps the keys that worker served.
    """

    def __init__(self, worker_ids, vnodes: int = 32):
        points = []
        for wid in worker_ids:
            for vnode in range(vnodes):
                points.append((_hash64(f"worker:{wid}:{vnode}"), wid))
        points.sort()
        if not points:
            raise ReproError("a hash ring needs at least one worker")
        self._points = points

    def preferred(self, key: str, candidates) -> list[int]:
        """``candidates`` reordered by ring distance from ``key``."""
        wanted = list(dict.fromkeys(candidates))
        if len(wanted) <= 1:
            return wanted
        remaining = set(wanted)
        ordered: list[int] = []
        start = bisect.bisect_left(self._points, (_hash64(key), -1))
        for step in range(len(self._points)):
            wid = self._points[(start + step) % len(self._points)][1]
            if wid in remaining:
                remaining.discard(wid)
                ordered.append(wid)
                if not remaining:
                    break
        ordered.extend(wid for wid in wanted if wid in remaining)
        return ordered


# ----------------------------------------------------------------------
# Worker-side evaluation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs, shipped as pickled data
    through the spawn args — no closures, no live objects (the
    executor-pickle-safety rule in ``tools/analyze`` enforces this
    shape for every worker target in the repo)."""

    worker_id: int
    #: Global indices of the shards this worker owns (primaries plus
    #: the replica slices assigned to it).
    indices: tuple
    shard_by: str | None
    #: Owned domain ranges aligned with ``indices`` (attribute-
    #: partitioned summaries; ``None`` for round-robin).
    ranges: tuple | None
    name: str
    #: In-memory mode: ``EntropySummary.to_payload()`` tuples for the
    #: owned shards, aligned with ``indices``.
    payloads: tuple | None
    #: Store mode: load-and-slice from this store root instead.
    store_root: str | None
    #: Store version to pin at boot (``None`` = latest); respawns after
    #: a reload pin the reloaded version.
    version: int | None
    parent_pid: int
    log_path: str | None


class ShardSlice:
    """The shards one worker owns — one shard, a contiguous block, or
    any subset such as 0 and 2 — as **one**
    :class:`~repro.core.arena.ShardArena` plus the map from global shard
    index to arena row.  The arena is the evaluator the single-process
    :class:`ShardedSummary` uses, so a shard contributes here exactly
    what it contributes there; the frontend says which owned shards each
    item should count (``shards``, global indices) and that becomes the
    arena's shard selection.  Built once per worker generation.
    """

    def __init__(self, shards, indices, schema, by_pos=None, ranges=None):
        self.shards = list(shards)
        self.indices = list(indices)
        self.schema = schema
        self.by_position = by_pos
        self.owned_ranges = (
            None if ranges is None else [tuple(owned) for owned in ranges]
        )
        if len(self.shards) != len(self.indices):
            raise ReproError("need exactly one global index per owned shard")
        if ranges is not None and len(self.owned_ranges) != len(self.shards):
            raise ReproError("need exactly one owned range per owned shard")
        self._local = {
            global_index: local
            for local, global_index in enumerate(self.indices)
        }
        self.arena = ShardArena(self)

    @classmethod
    def from_summary(cls, summary: ShardedSummary, indices) -> "ShardSlice":
        ranges = summary.owned_ranges
        return cls(
            [summary.shards[index] for index in indices],
            indices,
            summary.schema,
            by_pos=summary.by_position,
            ranges=(
                None
                if ranges is None
                else [ranges[index] for index in indices]
            ),
        )

    def locals_for(self, shards) -> np.ndarray | None:
        """The arena selection for the requested global shard indices
        (``None`` = every owned shard).  Unknown indices are ignored —
        the frontend's assignment is authoritative for what this worker
        should evaluate — so a selection of none answers exactly 0."""
        if shards is None:
            return None
        selection = np.zeros(len(self.shards), dtype=bool)
        for index in shards:
            local = self._local.get(index)
            if local is not None:
                selection[local] = True
        return selection

    def __repr__(self):
        return (
            f"ShardSlice(shards={list(self.indices)}, "
            f"by={self.by_position})"
        )


def partial_item(plan) -> dict:
    """Wire-ready fan-out item for one frontend plan: the *canonical*
    predicate as per-position domain-index lists (no SQL round-trip —
    workers evaluate exactly what the frontend planned), plus the
    aggregate shape the merge step needs."""
    query = plan.query
    conjunction = plan.conjunction_or_none()
    masks = {}
    if conjunction is not None:
        masks = {
            str(pos): np.flatnonzero(mask).tolist()
            for pos, mask in conjunction.attribute_masks().items()
        }
    if query.is_grouped:
        return {
            "kind": "group",
            "masks": masks,
            "group_by": [str(attr) for attr in query.group_by],
        }
    if query.aggregate in ("sum", "avg"):
        return {
            "kind": query.aggregate,
            "masks": masks,
            "attr": query.aggregate_attr,
        }
    return {"kind": "count", "masks": masks}


def _item_masks(schema, item) -> dict[int, np.ndarray]:
    """The dense value masks a fan-out item's index lists stand for.
    The lists arrive over the wire, so every position and index is
    range-checked first: unchecked, ``-1`` would select the last domain
    value and anything else surface as a numpy error."""
    sizes = schema.sizes()
    dense = {}
    for pos_text, indices in (item.get("masks") or {}).items():
        try:
            pos = int(pos_text)
        except (TypeError, ValueError):
            pos = -1
        if not 0 <= pos < len(sizes):
            raise QueryError(f"item mask on attribute {pos_text!r}: no such position")
        indices = np.asarray(indices).ravel()
        if indices.size and (
            indices.dtype.kind not in "iu"
            or indices.min() < 0
            or indices.max() >= sizes[pos]
        ):
            raise QueryError(
                f"item mask on attribute {pos} needs domain indices in "
                f"[0, {sizes[pos]})"
            )
        mask = np.zeros(sizes[pos], dtype=bool)
        mask[indices.astype(np.intp)] = True
        dense[pos] = mask
    return dense


def compute_partial(shard_slice: ShardSlice, item: dict) -> dict:
    """One worker-side partial aggregate for one fan-out item: the
    arena's own merge over the owned shards the item names.  GROUP BY
    keys stay domain indices — labels, order and limit belong to the
    frontend, because a global top-k is only defined after its merge."""
    kind = item.get("kind", "count")
    arena, schema = shard_slice.arena, shard_slice.schema
    masks = _item_masks(schema, item)
    selection = shard_slice.locals_for(item.get("shards"))
    if kind == "count":
        [(expectation, variance)] = arena.estimate_masks_batch([masks], selection)
        return {"kind": "count", "e": expectation, "v": variance}
    if kind in ("sum", "avg"):
        pos = schema.position(item["attr"])
        weights = numeric_weights(schema.domain(pos))
        if kind == "sum":
            total = arena.sum_estimate(pos, weights, masks, selection)
            return {"kind": "sum", "s": total}
        total, expectation, variance = arena.sum_and_count(
            pos, weights, masks, selection
        )
        return {"kind": "avg", "s": total, "e": expectation, "v": variance}
    if kind == "group":
        positions = [schema.position(attr) for attr in item["group_by"]]
        groups = arena.group_by(positions, masks, selection)
        return {
            "kind": "group",
            "labels": [list(key) for key in groups],
            "counts": np.asarray(
                [expectation for expectation, _ in groups.values()],
                dtype=np.float64,
            ),
        }
    raise QueryError(f"unknown partial kind {kind!r}")


def merge_partials(
    plan,
    spec: dict,
    partials,
    *,
    degraded_totals=(),
    total: int,
    rounded: bool = False,
) -> dict:
    """Frontend merge: worker partials → the wire payload the
    single-process server produces.  Each partial is already the arena's
    merge over the shards one worker was asked for, so what is left is
    to add them (expectations and variances add; AVG is merged SUM over
    merged COUNT), turn GROUP BY index keys into labels, round, and only
    then order and limit.

    ``degraded_totals`` carries the row counts of live shards no
    surviving worker covers: each contributes a uniform prior over
    ``[0, t]`` (expectation ``t/2``, variance ``t²/12``), widening the
    error bounds, and the payload is flagged ``degraded``.
    """
    for partial in partials:
        if partial.get("kind") == "error":
            raise QueryError(str(partial.get("error", "worker partial failed")))
    query = plan.query
    kind = spec["kind"]
    if kind in ("count", "avg"):
        expectation = sum(partial["e"] for partial in partials)
        variance = sum(partial["v"] for partial in partials)
        for missing_total in degraded_totals:
            expectation += missing_total / 2.0
            variance += (missing_total * missing_total) / 12.0
        merged = QueryEstimate(expectation, variance, total)
        count = float(merged.rounded) if rounded else merged.expectation
        if kind == "count":
            result = QueryResult(query, count, None, merged)
        elif count <= 0:
            raise QueryError("AVG undefined: no rows match the predicate")
        else:
            merged_sum = sum(partial["s"] for partial in partials)
            result = QueryResult(query, merged_sum / count, None)
    elif kind == "sum":
        result = QueryResult(
            query, sum(partial["s"] for partial in partials), None
        )
    elif kind == "group":
        schema = plan.predicate.schema
        domains = [schema.domain(attr) for attr in query.group_by]
        by_index: dict[tuple, float] = {}
        for partial in partials:
            for key, count in zip(
                partial.get("labels", ()), partial.get("counts", ())
            ):
                key = tuple(key)
                by_index[key] = by_index.get(key, 0.0) + float(count)
        counts = {
            tuple(
                domain.label_of(index) for domain, index in zip(domains, key)
            ): float(QueryEstimate(count, 0.0, total).rounded) if rounded else count
            for key, count in by_index.items()
        }
        result = QueryResult(
            query, None, ordered_rows(counts, query.order, query.limit)
        )
    else:
        raise QueryError(f"unknown partial kind {kind!r}")
    payload = result_payload(result)
    if degraded_totals:
        payload["degraded"] = True
    return payload


# ----------------------------------------------------------------------
# The worker server
# ----------------------------------------------------------------------

def _model_for_slice(shard_slice: ShardSlice, name: str):
    """The slice as the model behind the worker's inherited ops
    (``ping`` / ``stats`` / ``describe`` / a direct ``query``): a subset
    ``ShardedSummary`` when the worker owns two or more shards, the bare
    shard otherwise.  ``partial_batch`` never touches it."""
    if len(shard_slice.shards) >= 2:
        shard_by = (
            None
            if shard_slice.by_position is None
            else shard_slice.schema.attribute_names[shard_slice.by_position]
        )
        return ShardedSummary(
            shard_slice.shards,
            name=name,
            shard_by=shard_by,
            ranges=shard_slice.owned_ranges,
        )
    return shard_slice.shards[0]


class ShardWorkerServer(SummaryServer):
    """One worker process: a full ``SummaryServer`` over its owned
    shard slice, plus the ``partial_batch`` op the frontend fans out
    to.  Store-backed workers load-and-slice on every (hot) reload, so
    an ingest publish propagates through the pool with the ordinary
    ``reload`` op."""

    def __init__(self, spec: WorkerSpec, *, config=None):
        # No chaos injector: ``partial_batch`` runs on the event loop,
        # where ``FaultInjector.act`` (which may sleep) must never be.
        self._spec = spec
        self.slice: ShardSlice | None = None
        if spec.store_root is not None:
            super().__init__(
                store=spec.store_root, name=spec.name, version=spec.version,
                config=config,
            )
        else:
            shards = [
                EntropySummary.from_payload(document, arrays)
                for document, arrays in spec.payloads
            ]
            schema = shards[0].schema
            by_pos = None if spec.shard_by is None else schema.position(spec.shard_by)
            self.slice = ShardSlice(
                shards, list(spec.indices), schema, by_pos=by_pos, ranges=spec.ranges
            )
            model = _model_for_slice(self.slice, f"{spec.name}:w{spec.worker_id}")
            super().__init__(model, config=config)

    def _load_generation(self, version=None, tag=None) -> _Generation:
        record, summary = self._store.load_with_record(
            self._name, version=version, tag=tag
        )
        if not hasattr(summary, "shards"):
            raise ReproError(
                f"store summary {self._name!r} is not sharded; a cluster "
                "worker needs a ShardedSummary"
            )
        spec = self._spec
        for index in spec.indices:
            if not 0 <= index < summary.num_shards:
                raise ReproError(
                    f"worker {spec.worker_id} owns shard {index} but "
                    f"version {record.version} has {summary.num_shards} "
                    "shards; restart the cluster to rebalance"
                )
        shard_slice = ShardSlice.from_summary(summary, list(spec.indices))
        model = _model_for_slice(
            shard_slice, f"{summary.name}:w{spec.worker_id}"
        )
        self.slice = shard_slice  # swaps atomically with the generation
        explorer = Explorer.attach(model, rounded=self.config.rounded)
        return _Generation(
            record.version,
            explorer,
            label=f"{record.describe()} [shards {list(spec.indices)}]",
        )

    async def _dispatch(self, client: str, request: dict) -> dict:
        if request.get("op") == "partial_batch":
            # Inline on the event loop, not in an executor (module
            # docstring, *Fan-out*); busy_us times exactly this block.
            began = time.perf_counter()
            items = request.get("items")
            if not isinstance(items, (list, tuple)) or not items:
                raise QueryError(
                    "partial_batch op needs a non-empty 'items' list"
                )
            self._requests_total.labels(op="partial_batch").inc(len(items))
            version = self.version
            partials = self._compute_partials(self.slice, items)
            return {
                "ok": True,
                "status": 200,
                "partials": partials,
                "version": version,
                "busy_us": (time.perf_counter() - began) * 1e6,
            }
        return await super()._dispatch(client, request)

    @staticmethod
    def _compute_partials(shard_slice: ShardSlice, items) -> list:
        partials = []
        for item in items:
            try:
                partials.append(compute_partial(shard_slice, item))
            except Exception as error:
                # A failing item answers as an error partial instead of
                # poisoning the batch (the frontend re-raises per plan).
                partials.append(
                    {
                        "kind": "error",
                        "error": f"{type(error).__name__}: {error}",
                    }
                )
        return partials


def _watchdog_main(parent_pid: int) -> None:
    """Exit the worker when the frontend process goes away — an
    orphaned worker would otherwise serve a dead cluster forever."""
    while True:
        time.sleep(1.0)
        if os.getppid() != parent_pid:
            os._exit(0)


def _worker_main(spec: WorkerSpec, config_fields: dict, ready_queue) -> None:
    """Worker-process entry point (module-level so it pickles through
    the spawn context; everything it needs rides in ``spec``)."""
    if spec.log_path:
        log_file = open(spec.log_path, "a", buffering=1)
        sys.stdout = sys.stderr = log_file
    print(
        f"[worker {spec.worker_id}] booting pid={os.getpid()} "
        f"shards={list(spec.indices)}"
    )
    try:
        config = ServeConfig(**config_fields)
        server = ShardWorkerServer(spec, config=config)
    except Exception as error:
        ready_queue.put(
            ("error", spec.worker_id, f"{type(error).__name__}: {error}")
        )
        return
    watchdog = threading.Thread(
        target=_watchdog_main,
        args=(spec.parent_pid,),
        name="repro-cluster-watchdog",
        daemon=True,
    )
    watchdog.start()

    async def _main() -> None:
        await server.start()
        ready_queue.put(("ready", spec.worker_id, server.port))
        print(
            f"[worker {spec.worker_id}] serving on "
            f"{server.host}:{server.port}"
        )
        await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


# ----------------------------------------------------------------------
# The frontend
# ----------------------------------------------------------------------

@dataclass(eq=False)
class _WorkerHandle:
    """Frontend-side state of one worker process."""

    worker_id: int
    indices: tuple
    process: object = None
    host: str = "127.0.0.1"
    port: int = 0
    alive: bool = False
    #: One death increment per process incarnation, wherever the death
    #: is first noticed (kill_worker, fan-out, or monitor).
    death_counted: bool = False


class ClusterCoordinator(SummaryServer):
    """Frontend of the worker pool: plans, routes, fans out, merges.

    Construct like a :class:`SummaryServer` (in-memory sharded summary,
    or a store plus name) with a pool shape on top::

        server = ClusterCoordinator(summary, workers=4, replicas=2)

    ``workers`` processes are spawned at :meth:`start`; shard ``s`` is
    owned by ``replicas`` consecutive workers starting from its
    balanced block owner, and each query's canonical key picks the
    serving replica through the consistent-hash ring.  A monitor
    thread respawns dead workers; until a respawn lands, uncovered
    shards degrade (widened bounds, ``degraded: true``) instead of
    failing the request.  ``assignment`` overrides the owner lists per
    shard (tests exercise arbitrary assignments through it).
    """

    def __init__(
        self,
        source=None,
        *,
        store=None,
        name: str | None = None,
        version: int | None = None,
        tag: str | None = None,
        workers: int = 2,
        replicas: int = 1,
        config: ServeConfig | None = None,
        chaos=None,
        assignment=None,
        worker_log_dir: str | None = None,
        worker_timeout: float = 30.0,
    ):
        super().__init__(
            source,
            store=store,
            name=name,
            version=version,
            tag=tag,
            config=config,
            chaos=chaos,
        )
        summary = getattr(self._generation.explorer.backend, "summary", None)
        if summary is None or not hasattr(summary, "shards"):
            raise ReproError(
                "a cluster serves a sharded summary; build one with "
                "SummaryBuilder.shards or lower --workers to 1"
            )
        if not 1 <= workers <= summary.num_shards:
            raise ReproError(
                f"workers (--workers) must be in [1, {summary.num_shards}] "
                f"(one shard cannot split across workers), got {workers}"
            )
        if not 1 <= replicas <= workers:
            raise ReproError(
                f"replicas (--replicas) must be in [1, {workers}], "
                f"got {replicas}"
            )
        self._pool_size = workers
        self._replicas = replicas
        self._worker_timeout = worker_timeout
        self._worker_log_dir = (
            worker_log_dir
            if worker_log_dir is not None
            else os.environ.get(LOG_DIR_ENV) or None
        )
        num_shards = summary.num_shards
        if assignment is not None:
            owners = [list(entry) for entry in assignment]
            if len(owners) != num_shards:
                raise ReproError(
                    f"assignment needs one owner list per shard "
                    f"({num_shards}), got {len(owners)}"
                )
            for shard, entry in enumerate(owners):
                if not entry or not all(
                    isinstance(wid, int) and 0 <= wid < workers
                    for wid in entry
                ):
                    raise ReproError(
                        f"assignment for shard {shard} must name workers "
                        f"in [0, {workers})"
                    )
        else:
            # Balanced contiguous blocks (affinity-friendly for range-
            # partitioned summaries), then the next replicas-1 workers.
            owners = []
            for shard in range(num_shards):
                primary = shard * workers // num_shards
                owners.append(
                    [(primary + step) % workers for step in range(replicas)]
                )
        #: Ordered owner workers per shard (primary first).
        self._owners = owners
        self._ring = HashRing(range(workers))
        self._desired_version: int | None = (
            self.version if self._store is not None else None
        )
        owned: list[list[int]] = [[] for _ in range(workers)]
        for shard, entry in enumerate(owners):
            for wid in entry:
                if shard not in owned[wid]:
                    owned[wid].append(shard)
        for wid, shard_list in enumerate(owned):
            if not shard_list:
                raise ReproError(
                    f"worker {wid} owns no shards under this assignment; "
                    "lower --workers or raise --replicas"
                )
        self._handles = [
            _WorkerHandle(wid, tuple(sorted(owned[wid]))) for wid in range(workers)
        ]
        self._ctx = multiprocessing.get_context("spawn")
        self._ready_queue = None
        self._ready_buffer: dict[int, int] = {}
        self._monitor: threading.Thread | None = None
        self._pool_shutdown = threading.Event()
        self._pool_lock = threading.Lock()
        self._channels_lock = threading.Lock()
        #: Idle kept channels per worker *incarnation*, keyed by its
        #: port: a respawn binds a new port, so a dead process's socket
        #: can never answer for its successor.  An entry exists from the
        #: incarnation's ready message until it is killed or replaced.
        self._channels: dict[int, list[ServeClient]] = {}  # guarded-by: _channels_lock
        self._cluster_workers = self.metrics.gauge(
            "repro_cluster_workers", "Live worker processes in the pool."
        )
        self._worker_deaths = self.metrics.counter(
            "repro_cluster_worker_deaths_total",
            "Worker processes observed dead (killed, crashed, or OOMed).",
        )
        self._respawns = self.metrics.counter(
            "repro_cluster_respawns_total",
            "Worker processes respawned by the monitor.",
        )
        self._degraded_total = self.metrics.counter(
            "repro_cluster_degraded_total",
            "Requests answered with widened bounds because no live "
            "worker covered a live shard.",
        )
        self._fanout_seconds = self.metrics.histogram(
            "repro_cluster_fanout_seconds",
            "Frontend fan-out + merge latency per evaluation.",
        )
        self._worker_busy_seconds = self.metrics.histogram(
            "repro_cluster_worker_busy_seconds",
            "Worker-reported time per partial_batch call (decoded request "
            "to computed partials); fan-out minus this is routing and wire.",
        )
        self._reconnects = self.metrics.counter(
            "repro_cluster_channel_reconnects_total",
            "Kept worker channels found dead and replaced by a fresh "
            "connection to the same incarnation.",
        )
        self._partial_calls = self.metrics.counter(
            "repro_cluster_partial_calls_total",
            "partial_batch calls sent to workers, by outcome.",
            ("outcome",),
        )
        self._version_skew_total = self.metrics.counter(
            "repro_cluster_version_skew_total",
            "Worker partials answered at a different store version than "
            "the frontend's pinned generation (transient during reload).",
        )

    # -- pool construction -------------------------------------------------
    def worker_ports(self) -> list[int]:
        """Bound port of each worker (0 = not started); every port is
        ephemeral — the pool never claims fixed ports."""
        return [handle.port for handle in self._handles]

    def _worker_config_fields(self) -> dict:
        return dict(
            host="127.0.0.1",
            port=0,  # always ephemeral; the ready message reports it
            cache_size=0,  # results cache lives at the frontend
            cache_ttl=None,
            rounded=False,  # rounding applies to merged values only
            binary=True,
            trace_ring=0,
        )

    def _worker_spec(self, worker_id: int) -> WorkerSpec:
        handle = self._handles[worker_id]
        summary = self._generation.explorer.backend.summary
        log_path = None
        if self._worker_log_dir:
            os.makedirs(self._worker_log_dir, exist_ok=True)
            log_path = os.path.join(self._worker_log_dir, f"worker-{worker_id}.log")
        store_backed = self._store is not None
        ranges = None if store_backed else summary.owned_ranges
        return WorkerSpec(
            worker_id=worker_id,
            indices=handle.indices,
            shard_by=summary.shard_by,
            ranges=None if ranges is None else tuple(
                tuple(ranges[index]) for index in handle.indices
            ),
            name=self._name if store_backed else summary.name,
            payloads=None if store_backed else tuple(
                summary.shards[index].to_payload() for index in handle.indices
            ),
            store_root=str(self._store.root) if store_backed else None,
            version=self._desired_version,  # None without a store
            parent_pid=os.getpid(),
            log_path=log_path,
        )

    def _spawn_process(self, worker_id: int):
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self._worker_spec(worker_id),
                self._worker_config_fields(),
                self._ready_queue,
            ),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        return process

    def _await_ready(self, worker_id: int, deadline: float) -> int:
        """Wait for one worker's ready message; returns its port.
        Messages arrive in boot order, not ask order — other workers'
        readiness is buffered for their own waits, never dropped."""
        while True:
            if worker_id in self._ready_buffer:
                return self._ready_buffer.pop(worker_id)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ReproError(
                    f"cluster worker {worker_id} did not start within "
                    f"{_BOOT_TIMEOUT_S:.0f}s"
                )
            try:
                kind, wid, value = self._ready_queue.get(timeout=remaining)
            except queue_module.Empty:
                continue
            if kind == "error":
                raise ReproError(f"cluster worker {wid} failed: {value}")
            self._ready_buffer[wid] = int(value)

    def _start_pool(self) -> None:
        self._ready_queue = self._ctx.Queue()
        self._ready_buffer.clear()
        for handle in self._handles:
            handle.process = self._spawn_process(handle.worker_id)
        deadline = time.monotonic() + _BOOT_TIMEOUT_S
        try:
            for handle in self._handles:
                self._admit(handle, deadline)
        except ReproError:
            self._stop_pool()
            raise
        self._cluster_workers.set(self._pool_size)
        self._monitor = threading.Thread(
            target=self._monitor_main, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()

    def _stop_pool(self) -> None:
        self._pool_shutdown.set()
        monitor = self._monitor
        if monitor is not None:
            monitor.join(timeout=10)
            self._monitor = None
        for handle in self._handles:
            handle.alive = False
            self._close_channels(handle.port)
            process = handle.process
            if process is None:
                continue
            process.terminate()
            process.join(timeout=5)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
            handle.process = None
        if self._ready_queue is not None:
            self._ready_queue.close()
            self._ready_queue = None
        self._cluster_workers.set(0)

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._start_pool)
        await super().start()

    async def stop(self) -> None:
        await super().stop()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._stop_pool)

    # -- worker channels ---------------------------------------------------
    def _admit(self, handle: _WorkerHandle, deadline: float) -> None:
        """Wait for the handle's new incarnation to answer ready, then
        route to it."""
        port = self._await_ready(handle.worker_id, deadline)
        with self._channels_lock:
            self._channels[port] = []
        handle.port = port
        handle.alive = True

    def _close_channels(self, port: int) -> None:
        """Forget an incarnation: close its idle channels now; the ones
        in use are closed when their round returns them."""
        with self._channels_lock:
            idle = self._channels.pop(port, ())
        for channel in idle:
            channel.close()

    def _exchange(self, op: str, requests: dict) -> dict:
        """One scatter/gather round on the calling thread (module
        docstring, *Fan-out*).  ``requests``: worker id → fields of its
        ``op`` request; returns worker id → response envelope, or the
        :class:`ServeError` that ended the call — a
        :class:`TransportError` only if a fresh connection failed too
        (``partial_batch`` and ``reload`` are idempotent, so a kept
        channel found dead is retried once)."""
        deadline = time.monotonic() + self._worker_timeout

        def remaining() -> float:
            return max(deadline - time.monotonic(), 1e-3)

        calls = []
        for wid, fields in requests.items():
            handle = self._handles[wid]
            port = handle.port
            with self._channels_lock:
                idle = self._channels.get(port)
                channel = idle.pop() if idle else None
            kept = channel is not None
            if not kept:
                channel = ServeClient(handle.host, port)
            channel.timeout = remaining()
            try:
                sent = channel.send(op, **fields)
            except TransportError as error:
                sent = error
            calls.append((wid, port, channel, kept, sent))
        replies = {}
        for wid, port, channel, kept, sent in calls:
            try:
                try:
                    if isinstance(sent, TransportError):
                        raise sent
                    channel.timeout = remaining()
                    reply = channel.receive(sent)
                except TransportError:
                    if not kept:
                        raise
                    self._reconnects.inc()
                    channel.timeout = remaining()
                    reply = channel.call(op, **requests[wid])
            except ServeError as error:
                reply = error
            replies[wid] = reply
            with self._channels_lock:
                idle = self._channels.get(port)
                if idle is not None and not isinstance(reply, TransportError):
                    idle.append(channel)
                    continue
            channel.close()
        return replies

    # -- worker liveness ---------------------------------------------------
    def _live_workers(self) -> set[int]:
        return {handle.worker_id for handle in self._handles if handle.alive}

    def _monitor_main(self) -> None:
        """Respawn loop: notices dead worker processes, spawns fresh
        ones, and re-admits suspects that answer a ping.  Joined by
        :meth:`_stop_pool` on shutdown."""
        while not self._pool_shutdown.wait(_MONITOR_INTERVAL_S):
            for handle in self._handles:
                if self._pool_shutdown.is_set():
                    break
                process = handle.process
                if process is None:
                    continue
                if not process.is_alive():
                    handle.alive = False
                    if not handle.death_counted:
                        handle.death_counted = True
                        self._worker_deaths.inc()
                    self._cluster_workers.set(len(self._live_workers()))
                    try:
                        self._respawn(handle)
                    except ReproError:
                        continue  # retried on the next tick
                elif not handle.alive:
                    # Suspected from a failed fan-out call but the
                    # process lives: probe and re-admit.
                    try:
                        with ServeClient(handle.host, handle.port, timeout=2.0) as c:
                            c.ping()
                    except (ServeError, OSError):
                        pass
                    else:
                        handle.alive = True
                        self._cluster_workers.set(len(self._live_workers()))

    def _respawn(self, handle: _WorkerHandle) -> None:
        old = handle.process
        if old is not None:
            old.join(timeout=1.0)
        self._close_channels(handle.port)
        handle.process = self._spawn_process(handle.worker_id)
        self._admit(handle, time.monotonic() + _BOOT_TIMEOUT_S)
        handle.death_counted = False
        self._respawns.inc()
        self._cluster_workers.set(len(self._live_workers()))

    def kill_worker(self, worker_id: int | None = None) -> int:
        """Hard-kill one live worker (chaos hook / tests): SIGKILL, no
        goodbye — the monitor notices and respawns it.  Returns the
        killed worker's id."""
        with self._pool_lock:
            candidates = [
                handle
                for handle in self._handles
                if handle.alive
                and (worker_id is None or handle.worker_id == worker_id)
            ]
            if not candidates:
                raise ReproError("no live worker to kill")
            handle = candidates[0]
            handle.alive = False  # route around it immediately
            if not handle.death_counted:
                handle.death_counted = True
                self._worker_deaths.inc()
            self._cluster_workers.set(len(self._live_workers()))
            if handle.process is not None:
                handle.process.kill()
            self._close_channels(handle.port)
            return handle.worker_id

    # -- hot reload --------------------------------------------------------
    def reload(self, version: int | None = None, tag: str | None = None) -> int:
        """Reload the frontend's planning generation, then fan the same
        version out to every worker.  A worker that fails to reload is
        killed so the monitor respawns it at the reloaded version —
        the pool converges instead of serving mixed generations."""
        target = super().reload(version=version, tag=tag)
        self._desired_version = target
        live = {wid: {"version": target} for wid in self._live_workers()}
        for wid, reply in self._exchange("reload", live).items():
            if isinstance(reply, ServeError):
                try:
                    self.kill_worker(wid)
                except ReproError:
                    pass  # already dead; the monitor handles it
        return target

    # -- the fan-out evaluation path ---------------------------------------
    async def _inject_backend_chaos(self) -> None:
        await super()._inject_backend_chaos()
        chaos = self.chaos
        if chaos is not None and chaos.decide("cluster.worker_kill") is not None:
            try:
                self.kill_worker()
            except ReproError:
                pass  # pool already fully down; degraded answers follow

    def _runs_inline(self, items: list) -> bool:
        # The fan-out blocks on worker sockets: always the executor hop.
        return False

    def _execute_items(self, items: list) -> list:
        began = time.perf_counter()
        payloads = super()._execute_items(items)
        self._fanout_seconds.observe(time.perf_counter() - began)
        return payloads

    def _execute_plans(self, generation, plans: list) -> list:
        payloads: list = [None] * len(plans)
        fanout = []
        for position, plan in enumerate(plans):
            if plan.route.target == "sharded":
                fanout.append(position)
                continue
            # Contradictions (EmptyOp) and defensive fallbacks run on the
            # frontend's resident planning model.
            try:
                payloads[position] = result_payload(
                    generation.explorer.planner.execute(plan)
                )
            except Exception as error:
                payloads[position] = error
        if fanout:
            outputs = self._fan_out(generation, [plans[position] for position in fanout])
            for position, output in zip(fanout, outputs):
                payloads[position] = output
        return payloads

    def _fan_out(self, generation, plans: list) -> list:
        """Evaluate one execution's sharded plans across the pool."""
        version = generation.version
        summary = generation.explorer.backend.summary
        specs = [partial_item(plan) for plan in plans]
        keys = [repr(plan.cache_key) for plan in plans]
        partials: list[list] = [[] for _ in plans]
        degraded: list[set] = [set() for _ in plans]
        live = self._live_workers()
        pending: dict[int, dict[int, set]] = {}

        def _assign(position: int, shard: int) -> None:
            owners = self._ring.preferred(keys[position], self._owners[shard])
            owner = next((wid for wid in owners if wid in live), None)
            if owner is None:
                degraded[position].add(shard)
            else:
                pending.setdefault(owner, {}).setdefault(position, set()).add(shard)

        for position, plan in enumerate(plans):
            for shard in plan.route.detail.get("live_shards", ()):
                _assign(position, shard)

        while pending:
            current, pending = pending, {}
            requests = {}
            for wid, batch in current.items():
                items = [
                    {**specs[position], "shards": sorted(batch[position])}
                    for position in sorted(batch)
                ]
                requests[wid] = {"items": items}
            replies = self._exchange("partial_batch", requests)
            for wid, reply in replies.items():
                positions = sorted(current[wid])
                if not isinstance(reply, ServeError):
                    answered = reply.get("partials") or ()
                    if len(answered) != len(positions):
                        reply = TransportError(
                            f"worker {wid} answered {len(answered)} "
                            f"partials for {len(positions)} items"
                        )
                if isinstance(reply, TransportError):
                    # No (usable) answer: suspect the worker — the monitor
                    # probes or respawns it — and route its shards to their
                    # next owner still in ``live``, which only shrinks.
                    self._partial_calls.labels(outcome="failed").inc()
                    self._handles[wid].alive = False
                    live.discard(wid)
                    self._cluster_workers.set(len(self._live_workers()))
                    for position in positions:
                        for shard in current[wid][position]:
                            _assign(position, shard)
                elif isinstance(reply, ServeError):
                    # An answered error is not a dead worker: its plans
                    # fail with its message, it stays live.
                    self._partial_calls.labels(outcome="error").inc()
                    failed = {"kind": "error", "error": str(reply)}
                    for position in positions:
                        partials[position].append(failed)
                else:
                    self._partial_calls.labels(outcome="ok").inc()
                    if reply.get("version") != version:
                        self._version_skew_total.inc()
                    if "busy_us" in reply:
                        self._worker_busy_seconds.observe(reply["busy_us"] / 1e6)
                    for position, partial in zip(positions, answered):
                        partials[position].append(partial)

        outputs: list = []
        for plan, spec, parts, lost in zip(plans, specs, partials, degraded):
            if lost:
                self._degraded_total.inc()
            priors = [summary.shards[shard].total for shard in sorted(lost)]
            try:
                outputs.append(
                    merge_partials(
                        plan, spec, parts, degraded_totals=priors,
                        total=summary.total, rounded=self.config.rounded,
                    )
                )
            except Exception as error:
                outputs.append(error)
        return outputs

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict:
        report = super().stats()
        snapshot = self.metrics.snapshot()
        with self._channels_lock:
            # Kept (idle) channels per worker at this instant; the ones
            # mid-round are back before the next snapshot.
            channels = {
                str(handle.worker_id): len(self._channels.get(handle.port, ()))
                for handle in self._handles
            }
        report["cluster"] = {
            "workers": self._pool_size,
            "replicas": self._replicas,
            "live": len(self._live_workers()),
            "assignment": {
                str(handle.worker_id): list(handle.indices)
                for handle in self._handles
            },
            "channels": channels,
            **{
                key: int(sample_value(snapshot, f"repro_cluster_{family}_total"))
                for key, family in (
                    ("deaths", "worker_deaths"),
                    ("respawns", "respawns"),
                    ("degraded", "degraded"),
                    ("reconnects", "channel_reconnects"),
                )
            },
        }
        return report

    def __repr__(self):
        return (
            f"ClusterCoordinator({self._generation.label!r}, "
            f"{self.host}:{self.port}, workers={self._pool_size}, "
            f"replicas={self._replicas})"
        )
