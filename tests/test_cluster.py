"""Tests for the multi-worker serving tier (``repro.serve.cluster``).

Two layers:

* **Merge math, no processes** — the property tests drive the exact
  pipeline the frontend uses (``partial_item`` → per-worker
  ``ShardSlice.compute_partial`` → ``merge_partials``) over
  hypothesis-drawn shard→worker assignments, including replicas and
  dead-worker reassignment, and require the merged answers to equal
  the single-process planner's answers (within float-summation
  tolerance; degraded answers must flag themselves and widen bounds).
* **Real processes** — a :class:`ClusterCoordinator` with spawned
  workers: client parity with a single-process server, a mid-traffic
  worker kill with zero dropped requests, respawn, hot reload under
  traffic, and ephemeral-port discipline.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import socket
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Explorer, SummaryBuilder, SummaryStore
from repro.data.binning import Bucket
from repro.data.domain import Domain, integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import QueryError, ReproError
from repro.obs import sample_value
from repro.query.linear import numeric_weights
from repro.serve import (
    ClusterCoordinator,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
    SummaryServer,
    TransportError,
    run_load,
)
from repro.serve.cluster import (
    HashRing,
    ShardSlice,
    ShardWorkerServer,
    compute_partial,
    merge_partials,
    partial_item,
)
from repro.serve.server import result_payload
from repro.stats.predicates import conjunction_from_masks
from tests import reference

# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

NUM_SHARDS = 4

QUERIES = [
    "SELECT COUNT(*) FROM R",
    "SELECT COUNT(*) FROM R WHERE state = 'CA'",
    "SELECT COUNT(*) FROM R WHERE hour >= 3 AND state != 'NY'",
    "SELECT COUNT(*) FROM R WHERE hour BETWEEN 2 AND 9",
    "SELECT SUM(hour) FROM R WHERE state = 'WA'",
    "SELECT AVG(hour) FROM R WHERE state IN ('CA', 'NY')",
    "SELECT state, COUNT(*) FROM R GROUP BY state ORDER BY cnt DESC",
    "SELECT hour, COUNT(*) FROM R WHERE state = 'CA' GROUP BY hour LIMIT 3",
]


def _relation(rows: int = 900, seed: int = 7) -> Relation:
    schema = Schema(
        [Domain("state", ["CA", "NY", "WA"]), integer_domain("hour", 16)]
    )
    rng = np.random.default_rng(seed)
    return Relation(
        schema,
        [
            rng.choice(3, size=rows, p=[0.5, 0.3, 0.2]),
            rng.integers(0, 16, rows),
        ],
    )


def _fit(relation, name: str = "cluster-test"):
    return (
        SummaryBuilder(relation)
        .shards(NUM_SHARDS, by="hour", workers=1)
        .pairs(("state", "hour"))
        .per_pair_budget(4)
        .iterations(40)
        .name(name)
        .fit()
    )


@pytest.fixture(scope="module")
def summary():
    return _fit(_relation())


@pytest.fixture(scope="module")
def explorer(summary):
    return Explorer.attach(summary)


@pytest.fixture(scope="module")
def single_payloads(explorer):
    """Single-process ground truth, one payload per query."""
    payloads = {}
    for sql in QUERIES:
        plan = explorer.plan(sql)
        payloads[sql] = result_payload(explorer.planner.execute(plan))
    return payloads


def _norm(payload: dict) -> dict:
    return {
        key: (value.tolist() if isinstance(value, np.ndarray) else value)
        for key, value in payload.items()
    }


def _close(a, b, tol=1e-6):
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= tol * (1.0 + abs(a) + abs(b))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], tol) for k in a)
    return a == b


def worker_slices(summary, assignment) -> dict:
    """One :class:`ShardSlice` per worker over the shards
    ``assignment[shard] = [owner workers]`` gives it — what each worker
    process builds once per generation."""
    owned: dict[int, list] = {}
    for shard, owners in enumerate(assignment):
        for wid in owners:
            owned.setdefault(wid, []).append(shard)
    return {
        wid: ShardSlice.from_summary(summary, shards)
        for wid, shards in owned.items()
    }


def frontend_merge(
    summary, plan, assignment, live, *, slices=None, pick=None, rounded=False
):
    """The coordinator's routing + merge pipeline, inline (no
    processes): route each live shard to a live owner (``pick`` chooses
    among them; default the first), compute one partial per worker over
    the shards routed to it, merge.  Returns the merged payload.
    ``live`` is the set of live worker ids; a shard none of them owns
    degrades."""
    assert plan.route.target == "sharded"
    if slices is None:
        slices = worker_slices(summary, assignment)
    spec = partial_item(plan)
    batches: dict[int, set] = {}
    degraded = []
    for shard in plan.route.detail.get("live_shards", ()):
        owners = [wid for wid in assignment[shard] if wid in live]
        if not owners:
            degraded.append(summary.shards[shard].total)
            continue
        owner = owners[0] if pick is None else pick(owners)
        batches.setdefault(owner, set()).add(shard)
    partials = [
        compute_partial(slices[wid], {**spec, "shards": sorted(shards)})
        for wid, shards in batches.items()
    ]
    return merge_partials(
        plan,
        spec,
        partials,
        degraded_totals=degraded,
        total=summary.total,
        rounded=rounded,
    )


def _frontend_merge(summary, explorer, sql, assignment, live):
    return frontend_merge(summary, explorer.plan(sql), assignment, live)


# ----------------------------------------------------------------------
# Merge math (no processes)
# ----------------------------------------------------------------------

def assignments(num_workers=st.integers(2, 4)):
    """Shard→owners assignments: every shard owned by a non-empty
    subset of workers (order = replica preference)."""

    def build(workers):
        owners = st.lists(
            st.sampled_from(range(workers)),
            min_size=1,
            max_size=workers,
            unique=True,
        )
        return st.tuples(
            st.just(workers),
            st.lists(owners, min_size=NUM_SHARDS, max_size=NUM_SHARDS),
        )

    return num_workers.flatmap(build)


class TestMergeMath:
    @settings(max_examples=20, deadline=None)
    @given(case=assignments(), sql=st.sampled_from(QUERIES))
    def test_any_assignment_matches_single_process(
        self, summary, explorer, single_payloads, case, sql
    ):
        """All workers live: merged == single-process, any assignment."""
        workers, assignment = case
        merged = _frontend_merge(
            summary, explorer, sql, assignment, live=set(range(workers))
        )
        assert _close(_norm(merged), _norm(single_payloads[sql])), (
            sql,
            assignment,
        )

    @settings(max_examples=20, deadline=None)
    @given(
        case=assignments(num_workers=st.integers(2, 4)),
        dead=st.integers(0, 3),
        sql=st.sampled_from(QUERIES),
    )
    def test_dead_worker_reassignment_stays_exact_when_covered(
        self, summary, explorer, single_payloads, case, dead, sql
    ):
        """One worker down: shards it served fall to surviving owners.
        If every shard still has a live owner the answer is exact."""
        workers, assignment = case
        live = set(range(workers)) - {dead % workers}
        if not all(any(w in live for w in owners) for owners in assignment):
            return  # uncovered case: exercised by the degraded tests
        merged = _frontend_merge(summary, explorer, sql, assignment, live)
        assert _close(_norm(merged), _norm(single_payloads[sql])), (
            sql,
            assignment,
            live,
        )

    def test_uncovered_shard_degrades_with_wider_bounds(
        self, summary, explorer, single_payloads
    ):
        """A live shard with no live owner: the merged COUNT is flagged
        degraded, the missing shard contributes its uniform prior, and
        the interval widens beyond the exact answer's."""
        sql = "SELECT COUNT(*) FROM R"
        assignment = [[0], [0], [1], [1]]
        merged = _frontend_merge(
            summary, explorer, sql, assignment, live={0}
        )
        assert merged.get("degraded") is True
        exact = single_payloads[sql]
        lost = sum(summary.shards[s].total for s in (2, 3))
        width = merged["ci95"][1] - merged["ci95"][0]
        exact_width = exact["ci95"][1] - exact["ci95"][0]
        assert width > exact_width
        # the degraded prior is centred on half the lost rows
        assert merged["value"] == pytest.approx(
            exact["value"] - lost / 2.0, rel=0.25
        )

    def test_fully_uncovered_avg_is_a_query_error_only_when_empty(
        self, summary, explorer
    ):
        """AVG still answers under degradation (the count prior is
        positive); a contradiction stays a QueryError."""
        merged = _frontend_merge(
            summary,
            explorer,
            "SELECT AVG(hour) FROM R WHERE state IN ('CA', 'NY')",
            [[0], [0], [1], [1]],
            live={0},
        )
        assert merged.get("degraded") is True
        assert merged["value"] == pytest.approx(
            merged["value"]
        )  # finite, no exception

    def test_error_partial_raises_query_error(self, summary, explorer):
        plan = explorer.plan("SELECT COUNT(*) FROM R")
        spec = partial_item(plan)
        with pytest.raises(QueryError, match="boom"):
            merge_partials(
                plan,
                spec,
                [{"kind": "error", "error": "boom"}],
                total=summary.total,
            )

    def test_rounding_applies_to_the_merged_values(self, summary):
        """``--rounded``: workers ship unrounded partials; the frontend
        rounds what the single process rounds — the merged COUNT, AVG's
        denominator, each merged group — and nothing earlier."""
        rounded = Explorer.attach(summary, rounded=True)
        for sql in QUERIES:
            plan = rounded.plan(sql)
            merged = frontend_merge(
                summary, plan, [[0], [1], [0], [1]], {0, 1}, rounded=True
            )
            single = result_payload(rounded.planner.execute(plan))
            assert _close(_norm(merged), _norm(single)), sql

    def test_group_merge_applies_order_and_limit_globally(
        self, summary, explorer, single_payloads
    ):
        """Per-worker truncation would get global top-k wrong; the
        merge must sort/limit only after combining workers."""
        sql = "SELECT hour, COUNT(*) FROM R WHERE state = 'CA' GROUP BY hour LIMIT 3"
        merged = _frontend_merge(
            summary, explorer, sql, [[0], [1], [0], [1]], live={0, 1}
        )
        assert _close(_norm(merged), _norm(single_payloads[sql]))
        assert len(merged["labels"]) <= 3


def _count(shard_slice, masks=None, shards=None):
    """``(e, v)`` of a COUNT partial; ``masks`` as wire index lists."""
    partial = compute_partial(
        shard_slice, {"kind": "count", "masks": masks or {}, "shards": shards}
    )
    return partial["e"], partial["v"]


class TestShardSlice:
    def test_slice_evaluates_only_requested_owned_shards(self, summary):
        shard_slice = ShardSlice.from_summary(summary, [0, 1])
        full_e, full_v = _count(shard_slice)
        sub_e, sub_v = _count(shard_slice, shards=[0])
        other_e, other_v = _count(shard_slice, shards=[1])
        assert full_e == pytest.approx(sub_e + other_e)
        assert full_v == pytest.approx(sub_v + other_v)
        assert 0 < sub_e < full_e
        # unknown / unowned shard indices are ignored, not an error
        none_e, none_v = _count(shard_slice, shards=[3])
        assert (none_e, none_v) == (0.0, 0.0)

    @pytest.mark.parametrize("indices", [[2], [0, 2], [3, 1], [0, 1, 2, 3]])
    def test_any_ownership_is_one_arena(self, summary, indices):
        """One shard, non-adjacent shards, any order: one arena per
        slice, answering what the per-shard reference answers."""
        shard_slice = ShardSlice.from_summary(summary, indices)
        assert shard_slice.arena.num_shards == len(indices)
        masks = {"0": [0, 2]}
        predicate = conjunction_from_masks(
            summary.schema, {0: np.array([True, False, True])}
        )
        assert _count(shard_slice, masks) == pytest.approx(
            reference.count(summary, predicate, indices), rel=1e-9
        )
        asked = indices[:1]
        assert _count(shard_slice, masks, asked + [17]) == pytest.approx(
            reference.count(summary, predicate, asked), rel=1e-9
        )
        item = {"masks": masks, "shards": asked}
        total = reference.sum_estimate(
            summary, "hour", np.arange(16.0), predicate, asked
        )
        assert compute_partial(
            shard_slice, {"kind": "sum", "attr": "hour", **item}
        )["s"] == pytest.approx(total, rel=1e-9)
        # AVG: the same SUM and COUNT, from one arena pass.
        average = compute_partial(
            shard_slice, {"kind": "avg", "attr": "hour", **item}
        )
        assert (average["s"], average["e"], average["v"]) == pytest.approx(
            (total, *reference.count(summary, predicate, asked)), rel=1e-9
        )
        partial = compute_partial(
            shard_slice, {"kind": "group", "group_by": ["state", "hour"], **item}
        )
        expected = reference.group_by(summary, ["state", "hour"], predicate, asked)
        states = summary.schema.domain("state")
        assert {
            (states.label_of(state), hour): count
            for (state, hour), count in zip(partial["labels"], partial["counts"])
        } == pytest.approx({key: e for key, (e, _) in expected.items()}, rel=1e-9)

    def test_slice_requires_aligned_metadata(self, summary):
        with pytest.raises(ReproError, match="one global index"):
            ShardSlice(
                summary.shards[:2], [0], summary.schema,
                by_pos=summary.by_position,
            )


class TestItemValidation:
    """A fan-out item's index lists arrive over the wire and used to be
    densified unchecked: ``-1`` selected the last domain value, anything
    else surfaced as numpy's ``IndexError`` / ``ValueError`` text."""

    BAD = [
        ({"0": [-1]}, r"attribute 0 needs domain indices in \[0, 3\)"),
        ({"0": [0, 3]}, r"attribute 0 needs domain indices in \[0, 3\)"),
        ({"1": [16]}, r"attribute 1 needs domain indices in \[0, 16\)"),
        ({"1": [1.5]}, r"attribute 1 needs domain indices in \[0, 16\)"),
        ({"1": ["CA"]}, r"attribute 1 needs domain indices in \[0, 16\)"),
        ({"99": [0]}, "attribute '99': no such position"),
        ({"-1": [0]}, "attribute '-1': no such position"),
        ({"x": [0]}, "attribute 'x': no such position"),
    ]

    @pytest.mark.parametrize("masks, message", BAD)
    @pytest.mark.parametrize("kind", ["count", "sum", "avg", "group"])
    def test_out_of_range_masks_are_query_errors(self, summary, kind, masks, message):
        shard_slice = ShardSlice.from_summary(summary, [0, 1])
        item = {"kind": kind, "masks": masks, "attr": "hour", "group_by": ["state"]}
        with pytest.raises(QueryError, match=message):
            compute_partial(shard_slice, item)

    def test_in_range_masks_still_answer(self, summary):
        shard_slice = ShardSlice.from_summary(summary, [0, 1])
        partial = compute_partial(
            shard_slice, {"kind": "count", "masks": {"0": [2], "1": []}}
        )
        assert partial == {"kind": "count", "e": 0.0, "v": 0.0}  # hour IN ()
        partial = compute_partial(shard_slice, {"kind": "count", "masks": {"0": [2]}})
        assert partial["e"] > 0.0


class TestHashRing:
    def test_preference_is_deterministic_and_complete(self):
        ring = HashRing(range(4))
        order1 = ring.preferred("key-a", [0, 1, 2, 3])
        order2 = ring.preferred("key-a", [0, 1, 2, 3])
        assert order1 == order2
        assert sorted(order1) == [0, 1, 2, 3]

    def test_distinct_keys_spread_over_workers(self):
        ring = HashRing(range(4))
        firsts = {
            ring.preferred(f"key-{i}", [0, 1, 2, 3])[0] for i in range(64)
        }
        assert len(firsts) == 4

    def test_subset_preference_is_stable_under_removal(self):
        """Removing a worker only remaps keys it served (the point of
        consistent hashing)."""
        ring = HashRing(range(4))
        for i in range(32):
            full = ring.preferred(f"key-{i}", [0, 1, 2, 3])
            without = ring.preferred(
                f"key-{i}", [w for w in (0, 1, 2, 3) if w != full[0]]
            )
            assert without == [w for w in full if w != full[0]]


# ----------------------------------------------------------------------
# Real worker processes
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def cluster(summary):
    # cache_size=0: every request must fan out to the workers, so the
    # kill/respawn tests exercise live worker traffic, not cache hits.
    coordinator = ClusterCoordinator(
        summary,
        workers=2,
        replicas=2,
        config=ServeConfig(port=0, cache_size=0),
    )
    with ServerThread(coordinator) as running:
        yield running


class TestClusterServing:
    def test_binds_ephemeral_ports_everywhere(self, cluster):
        """Frontend and every worker bind port 0 and read back the
        assigned port — no fixed ports to race over in a parallel CI
        matrix."""
        assert cluster.port != 0
        ports = cluster.worker_ports()
        assert len(ports) == 2
        assert all(port != 0 for port in ports)
        assert cluster.port not in ports

    def test_parity_with_single_process(self, cluster, single_payloads):
        with ServeClient(port=cluster.port) as client:
            for sql in QUERIES:
                got = client.call("query", sql=sql)["result"]
                assert _close(_norm(got), _norm(single_payloads[sql])), sql

    def test_every_execution_takes_the_executor_hop(self, cluster, monkeypatch):
        """The fan-out blocks on worker sockets, so no coordinator
        execution runs on the event loop — not even one whose plans a
        single-process server would evaluate there."""
        on_loop = []
        execute = cluster._execute_items

        def recorded(items):
            try:
                asyncio.get_running_loop()
            except RuntimeError:
                on_loop.append(False)
            else:
                on_loop.append(True)
            return execute(items)

        monkeypatch.setattr(cluster, "_execute_items", recorded)
        with ServeClient(port=cluster.port) as client:
            for sql in QUERIES:
                client.query(sql)
            client.query_many(QUERIES)
        assert on_loop == [False] * (len(QUERIES) + 1)

    def test_a_bad_item_fails_alone(self, cluster, summary):
        """Over the real wire to a real worker: the malformed items of a
        ``partial_batch`` come back as ``error`` partials, the rest of
        the batch is answered."""
        good = {"kind": "count", "masks": {"0": [0]}}
        bad = [
            {"kind": "count", "masks": {"0": [-1]}},
            {"kind": "count", "masks": {"0": [3]}},
            {"kind": "count", "masks": {"99": [0]}},
            {"kind": "count", "masks": {"x": [0]}},
        ]
        with ServeClient(port=cluster.worker_ports()[0]) as client:
            partials = client.call(
                "partial_batch", items=[good, *bad, good]
            )["partials"]
        assert [partial["kind"] for partial in partials] == [
            "count", "error", "error", "error", "error", "count",
        ]
        assert all(
            partial["error"].startswith("QueryError: item mask")
            for partial in partials[1:5]
        )
        assert partials[0] == partials[5] and partials[0]["e"] > 0.0

    def test_stats_reports_cluster_shape(self, cluster):
        with ServeClient(port=cluster.port) as client:
            stats = client.stats()
        assert stats["cluster"]["workers"] == 2
        assert stats["cluster"]["replicas"] == 2
        assert set(stats["cluster"]["assignment"]) == {"0", "1"}

    def test_worker_kill_mid_traffic_drops_nothing(
        self, cluster, single_payloads
    ):
        """100 concurrent requests with a worker killed mid-run: zero
        errors (replicas=2 keeps every shard covered), and the monitor
        respawns the worker."""
        respawns_before = cluster.stats()["cluster"]["respawns"]
        served_before = cluster.requests
        outcome = {}

        def drive():
            outcome["report"] = run_load(
                cluster.host,
                cluster.port,
                QUERIES,
                clients=10,
                requests_per_client=10,
            )

        loader = threading.Thread(target=drive, daemon=True)
        loader.start()
        # Kill only once traffic is demonstrably in flight, so the
        # remaining requests run against a one-worker pool.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if cluster.requests - served_before >= 10:
                break
            time.sleep(0.002)
        assert cluster.requests - served_before >= 10, "load never started"
        cluster.kill_worker()
        loader.join(timeout=120)
        assert not loader.is_alive(), "load run hung after the kill"
        report = outcome["report"]
        assert report.errors == 0
        assert report.requests == 100
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            stats = cluster.stats()["cluster"]
            if stats["live"] == 2 and stats["respawns"] > respawns_before:
                break
            time.sleep(0.2)
        stats = cluster.stats()["cluster"]
        assert stats["live"] == 2
        assert stats["respawns"] > respawns_before
        # answers are exact again after the respawn
        with ServeClient(port=cluster.port) as client:
            sql = "SELECT COUNT(*) FROM R WHERE hour >= 1"
            got = client.call("query", sql=sql)["result"]
            assert "degraded" not in got


# ----------------------------------------------------------------------
# The fan-out's channels: kept, exclusive, per incarnation
# ----------------------------------------------------------------------

def _counter(server, name, labels=None) -> float:
    return sample_value(server.metrics.snapshot(), name, labels)


def _worker_connections(port: int) -> float:
    """Binary connections one worker has accepted (this probe's own
    included)."""
    with ServeClient(port=port) as client:
        snapshot = client.server_metrics()["snapshot"]
    return sample_value(
        snapshot, "repro_connections_total", {"protocol": "binary"}
    )


def _cold_statements(count: int) -> list[str]:
    ranges = [(low, high) for low in range(16) for high in range(low, 16)]
    return [
        f"SELECT COUNT(*) FROM R WHERE hour BETWEEN {low} AND {high}"
        + ("" if index < len(ranges) else " AND state = 'CA'")
        for index, (low, high) in enumerate((ranges * 2)[:count])
    ]


def _sharded_items(coordinator, statements) -> list:
    generation = coordinator._generation
    plans = [generation.explorer.plan(sql) for sql in statements]
    assert all(plan.route.target == "sharded" for plan in plans)
    return [(generation, plan) for plan in plans]


def _closed_port() -> int:
    """A port nothing listens on (bound once, then released)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _idle_channels(coordinator) -> dict:
    with coordinator._channels_lock:
        return {port: list(idle) for port, idle in coordinator._channels.items()}


class TestChannels:
    def test_a_cold_stream_keeps_its_connections(self, cluster):
        """200 distinct queries, each a fan-out: every worker accepts
        O(flush threads) connections, not one per call."""
        statements = _cold_statements(200)
        assert len(set(statements)) == 200
        before = [_worker_connections(port) for port in cluster.worker_ports()]
        with ServeClient(port=cluster.port) as client:
            for sql in statements:
                assert "degraded" not in client.query(sql)
        after = [_worker_connections(port) for port in cluster.worker_ports()]
        # One probe connection per reading, plus at most one channel per
        # flush thread; a sequential client keeps one flush in flight.
        assert all(b - a <= 1 + 2 for a, b in zip(before, after)), (before, after)
        channels = cluster.stats()["cluster"]["channels"]
        assert set(channels) == {"0", "1"}
        # Bounded by the flush threads that can exist (the frontend
        # loop's default executor), however much traffic came before.
        flush_threads = min(32, (os.cpu_count() or 1) + 4)
        assert all(1 <= count <= flush_threads for count in channels.values())

    def test_concurrent_flushes_never_share_a_channel(self, cluster):
        """Four threads fanning out disjoint plan lists get, item for
        item, what a serial run gets: a channel is exclusive while
        checked out, so no frame interleaves and no reply is swapped."""
        statements = _cold_statements(120) + QUERIES
        items = _sharded_items(cluster, statements)
        serial = cluster._execute_items(items)
        assert not any(isinstance(out, BaseException) for out in serial)
        lists = [items[offset::4] for offset in range(4)]
        results: list = [None] * 4
        barrier = threading.Barrier(4)

        def flush(slot: int) -> None:
            barrier.wait(timeout=10)
            results[slot] = [
                output
                for start in range(0, len(lists[slot]), 3)
                for output in cluster._execute_items(lists[slot][start : start + 3])
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=flush, args=(slot,)) for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for offset in range(4):
            assert [_norm(out) for out in results[offset]] == [
                _norm(out) for out in serial[offset::4]
            ]
        idle = _idle_channels(cluster)
        assert sorted(idle) == sorted(cluster.worker_ports())
        assert all(
            channels and all(channel.port == port for channel in channels)
            for port, channels in idle.items()
        )

    def test_a_killed_incarnation_takes_its_channels_with_it(self, cluster):
        """kill_worker mid-stream with replicas=2: nothing fails, nothing
        degrades, the dead incarnation's channels are closed and gone,
        and after the respawn the fan-out talks to the new port."""
        with ServeClient(port=cluster.port) as client:
            for sql in QUERIES:
                client.query(sql)  # both workers hold a kept channel
            respawns = cluster.stats()["cluster"]["respawns"]
            victim = cluster.kill_worker(0)
            old_port = cluster.worker_ports()[victim]
            old_channels = _idle_channels(cluster)
            for sql in _cold_statements(60):
                assert "degraded" not in client.query(sql)
            assert old_port not in old_channels
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if cluster.stats()["cluster"]["respawns"] > respawns:
                    break
                time.sleep(0.05)
            new_port = cluster.worker_ports()[victim]
            assert new_port != old_port
            for sql in _cold_statements(60) + QUERIES:
                assert "degraded" not in client.query(sql)
        idle = _idle_channels(cluster)
        assert old_port not in idle
        assert idle[new_port] and all(
            channel.port == new_port and channel._sock is not None
            for channel in idle[new_port]
        )

    def test_kill_closes_the_idle_channels(self, summary):
        coordinator = ClusterCoordinator(summary, workers=2, replicas=2)
        with ServerThread(coordinator):
            coordinator._execute_items(_sharded_items(coordinator, QUERIES))
            port = coordinator.worker_ports()[1]
            kept = _idle_channels(coordinator)[port]
            assert kept and all(channel._sock is not None for channel in kept)
            coordinator.kill_worker(1)
            assert port not in _idle_channels(coordinator)
            assert all(channel._sock is None for channel in kept)

    def test_a_stale_channel_costs_one_reconnect_not_a_worker(self, cluster):
        items = _sharded_items(cluster, QUERIES)
        cluster._execute_items(items)
        failed = _counter(
            cluster, "repro_cluster_partial_calls_total", {"outcome": "failed"}
        )
        reconnects = cluster.stats()["cluster"]["reconnects"]
        stale = [c for idle in _idle_channels(cluster).values() for c in idle]
        assert len(stale) >= 2
        for channel in stale:
            # Under the frontend's feet: the client object still believes
            # it is connected.
            channel._sock.shutdown(2)
        outputs = cluster._execute_items(items)
        assert not any(isinstance(out, BaseException) for out in outputs)
        assert not any("degraded" in out for out in outputs)
        assert _counter(cluster, "repro_cluster_workers") == 2
        assert _counter(
            cluster, "repro_cluster_partial_calls_total", {"outcome": "failed"}
        ) == failed
        assert cluster.stats()["cluster"]["reconnects"] >= reconnects + 2
        assert cluster.stats()["cluster"]["live"] == 2

    def test_stop_leaves_no_socket_behind(self, summary):
        def sockets() -> int:
            count = 0
            for fd in os.listdir("/proc/self/fd"):
                with contextlib.suppress(OSError):
                    count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
            return count

        before = sockets()
        coordinator = ClusterCoordinator(summary, workers=2, replicas=2)
        with ServerThread(coordinator):
            outputs = coordinator._execute_items(
                _sharded_items(coordinator, QUERIES)
            )
            assert not any(isinstance(out, BaseException) for out in outputs)
            assert sockets() > before
            kept = [c for idle in _idle_channels(coordinator).values() for c in idle]
            assert len(kept) >= 2
        assert _idle_channels(coordinator) == {}
        assert all(channel._sock is None for channel in kept)
        assert sockets() == before

    def test_one_hung_worker_costs_one_timeout(self, summary):
        """SIGSTOP one of two workers: the round's reads share one
        deadline, and the retry of the kept channel gets what is left of
        it — the gather returns after ≈ one ``worker_timeout``."""
        coordinator = ClusterCoordinator(
            summary, workers=2, replicas=1, worker_timeout=1.0
        )
        with ServerThread(coordinator):
            items = _sharded_items(coordinator, ["SELECT COUNT(*) FROM R"])
            assert "degraded" not in coordinator._execute_items(items)[0]
            pid = coordinator._handles[0].process.pid
            os.kill(pid, signal.SIGSTOP)
            try:
                began = time.monotonic()
                [output] = coordinator._execute_items(items)
                elapsed = time.monotonic() - began
            finally:
                os.kill(pid, signal.SIGCONT)
            assert output["degraded"] is True
            assert 0.9 <= elapsed < 1.6, elapsed
            assert coordinator.stats()["cluster"]["live"] == 1


class _RefusingWorker(ShardWorkerServer):
    """A worker that answers every ``partial_batch`` with an error."""

    async def _dispatch(self, client, request):
        if request.get("op") == "partial_batch":
            raise QueryError("stub worker refuses partial_batch")
        return await super()._dispatch(client, request)


@contextlib.contextmanager
def _in_process_pool(coordinator, worker_classes):
    """Workers as in-process server threads behind a coordinator that
    was never started — the stub-worker harness: no processes, the real
    channels and the real ``_fan_out``."""
    with contextlib.ExitStack() as stack:
        for handle, worker_class in zip(coordinator._handles, worker_classes):
            worker = worker_class(
                coordinator._worker_spec(handle.worker_id),
                config=ServeConfig(**coordinator._worker_config_fields()),
            )
            stack.enter_context(ServerThread(worker))
            coordinator._ready_buffer[handle.worker_id] = worker.port
            coordinator._admit(handle, time.monotonic() + 1)
        try:
            yield coordinator
        finally:
            for handle in coordinator._handles:
                coordinator._close_channels(handle.port)


class TestFailureKinds:
    """A transport failure makes a worker suspect; an answered error is
    an answer."""

    def test_an_answered_error_fails_the_plans_not_the_worker(self, summary):
        coordinator = ClusterCoordinator(summary, workers=2, replicas=1)
        with _in_process_pool(coordinator, [_RefusingWorker, ShardWorkerServer]):
            # hour <= 3 lives on worker 0's shards, hour >= 12 on worker 1's.
            refused, answered, both = coordinator._execute_items(
                _sharded_items(
                    coordinator,
                    [
                        "SELECT COUNT(*) FROM R WHERE hour <= 3",
                        "SELECT COUNT(*) FROM R WHERE hour >= 12",
                        "SELECT COUNT(*) FROM R",
                    ],
                )
            )
            for output in (refused, both):
                assert isinstance(output, QueryError)
                assert "stub worker refuses partial_batch" in str(output)
            assert answered["value"] > 0 and "degraded" not in answered
            assert coordinator._handles[0].alive
            assert _counter(
                coordinator,
                "repro_cluster_partial_calls_total",
                {"outcome": "error"},
            ) == 1
            assert _counter(coordinator, "repro_cluster_degraded_total") == 0
            # the channel that carried the refusal went back to its list
            port = coordinator.worker_ports()[0]
            assert len(_idle_channels(coordinator)[port]) == 1

    def test_a_transport_failure_reroutes_and_suspects(self, summary):
        coordinator = ClusterCoordinator(summary, workers=2, replicas=2)
        with _in_process_pool(coordinator, [ShardWorkerServer] * 2):
            items = _sharded_items(coordinator, QUERIES)
            expected = coordinator._execute_items(items)
            # Worker 0 vanishes: nothing listens on its port any more, so
            # the kept channel fails and so does the fresh connection.
            silent = _closed_port()
            handle = coordinator._handles[0]
            for channel in _idle_channels(coordinator)[handle.port]:
                channel.close()
                channel.port = silent
            outputs = coordinator._execute_items(items)
            assert [_norm(out) for out in outputs] == [_norm(out) for out in expected]
            assert not handle.alive
            assert _counter(coordinator, "repro_cluster_workers") == 1
            assert _counter(
                coordinator,
                "repro_cluster_partial_calls_total",
                {"outcome": "failed"},
            ) >= 1

    def test_exchange_reports_what_ended_each_call(self, summary):
        coordinator = ClusterCoordinator(summary, workers=2, replicas=1)
        with _in_process_pool(coordinator, [_RefusingWorker, ShardWorkerServer]):
            item = {"kind": "count", "masks": {}}
            replies = coordinator._exchange(
                "partial_batch", {0: {"items": [item]}, 1: {"items": [item]}}
            )
            assert isinstance(replies[0], ServeError)
            assert not isinstance(replies[0], TransportError)
            assert replies[1]["partials"][0]["kind"] == "count"
            assert replies[1]["busy_us"] > 0


# ----------------------------------------------------------------------
# GROUP BY labels: one fixture, every surface, literal expectations
# ----------------------------------------------------------------------

STATES = ["CA", "NY", "TX", "WA"]
FARES = ["[0, 10)", "[10, 20)", "[20, 30)", "[30, 40]"]

#: (statement, the same query in the fluent API, the labelled rows both
#: must return, in order).  Sharded GROUP BY used to return domain
#: indices (``(0,)`` for ``('CA',)``) on every surface alike, so the
#: surfaces agreed and the parity tests passed; these expectations are
#: literals for that reason.
LABELLED = [
    (
        "SELECT state, COUNT(*) FROM R GROUP BY state",
        lambda query: query.group_by("state"),
        [(s,) for s in STATES],
    ),
    (
        "SELECT state, COUNT(*) FROM R GROUP BY state ORDER BY cnt DESC LIMIT 3",
        lambda query: query.group_by("state").order("desc").limit(3),
        [("CA",), ("NY",), ("TX",)],
    ),
    (
        "SELECT fare, COUNT(*) FROM R WHERE state = 'NY' "
        "GROUP BY fare ORDER BY cnt ASC",
        lambda query: query.where(state="NY").group_by("fare").order("asc"),
        [(f,) for f in reversed(FARES)],
    ),
    (
        "SELECT state, fare, COUNT(*) FROM R GROUP BY state, fare",
        lambda query: query.group_by("state", "fare"),
        [(s, f) for s in STATES for f in FARES],
    ),
    (
        "SELECT fare, state, COUNT(*) FROM R WHERE state IN ('TX', 'WA') "
        "GROUP BY fare, state",
        lambda query: query.where(state__in=("TX", "WA")).group_by("fare", "state"),
        [(f, s) for f in FARES for s in ("TX", "WA")],
    ),
]


def _labelled_relation() -> Relation:
    """State and fare frequencies 4 : 3 : 2 : 1, independent and exact,
    so every ORDER BY cnt has one right answer on any model."""
    schema = Schema(
        [
            Domain("state", STATES),
            Domain(
                "fare",
                [Bucket(low, low + 10, closed_right=low == 30) for low in range(0, 40, 10)],
            ),
        ]
    )
    skew = np.repeat(np.arange(4), [4, 3, 2, 1])
    state, fare = np.meshgrid(skew, skew, indexing="ij")
    return Relation(schema, [np.tile(state.ravel(), 8), np.tile(fare.ravel(), 8)])


def _rows(result) -> list:
    """An in-process result in the wire's row shape: labels as the wire
    spells them (a ``Bucket`` as its string), then the count."""
    return [
        [label if isinstance(label, str) else str(label) for label in row.labels]
        + [row.count]
        for row in result.rows
    ]


class TestLabelledGroupBy:
    @pytest.fixture(scope="class", params=["state", "fare"])
    def surfaces(self, request):
        """surface -> the rows of every ``LABELLED`` case, for one model
        sharded by the string attribute and one by the bucketed one."""
        relation = _labelled_relation()
        builder = SummaryBuilder(relation).pairs(("state", "fare")).per_pair_budget(4)
        unsharded = Explorer.attach(builder.iterations(40).fit())
        sharded = builder.shards(2, by=request.param, workers=1).fit()
        explorer = Explorer.attach(sharded)

        statements = [sql for sql, _, _ in LABELLED]
        found = {
            "unsharded": [_rows(unsharded.sql(sql)) for sql in statements],
            "sql": [_rows(explorer.sql(sql)) for sql in statements],
            "fluent": [
                _rows(fluent(explorer.query()).run()) for _, fluent, _ in LABELLED
            ],
        }
        config = ServeConfig(port=0, cache_size=0)
        with ServerThread(SummaryServer(sharded, config=config)) as server:
            for protocol in ("json", "binary"):
                with ServeClient(port=server.port, protocol=protocol) as client:
                    found[protocol] = [
                        client.query(sql)["rows"] for sql in statements
                    ]
        coordinator = ClusterCoordinator(sharded, workers=2, config=config)
        with ServerThread(coordinator) as server:
            with ServeClient(port=server.port) as client:
                found["cluster"] = [client.query(sql)["rows"] for sql in statements]
        return found

    @pytest.mark.parametrize(
        "surface", ["unsharded", "sql", "fluent", "json", "binary", "cluster"]
    )
    @pytest.mark.parametrize("case", range(len(LABELLED)))
    def test_rows_carry_labels_in_order(self, surfaces, surface, case):
        rows = surfaces[surface][case]
        assert [tuple(row[:-1]) for row in rows] == LABELLED[case][2]
        if surface != "unsharded":  # another model: same labels, other counts
            counts = [row[-1] for row in rows]
            expected = [row[-1] for row in surfaces["sql"][case]]
            assert counts == pytest.approx(expected, rel=1e-9)

    def test_counts_are_the_relations(self, surfaces):
        """The expectations above are not vacuous: the groups carry the
        4 : 3 : 2 : 1 frequencies the relation was built with."""
        rows = surfaces["cluster"][0]
        assert [row[-1] for row in rows] == pytest.approx(
            [320.0, 240.0, 160.0, 80.0], rel=0.02
        )


class TestClusterReload:
    @pytest.fixture()
    def versioned_store(self, tmp_path):
        store = SummaryStore(tmp_path / "models")
        store.save(_fit(_relation(rows=600, seed=3), name="demo"), "demo")
        store.save(_fit(_relation(rows=900, seed=4), name="demo"), "demo")
        return store

    def test_reload_under_traffic_converges_the_pool(self, versioned_store):
        coordinator = ClusterCoordinator(
            store=versioned_store,
            name="demo",
            version=1,
            workers=2,
            replicas=2,
            config=ServeConfig(port=0, cache_size=0),
        )
        with ServerThread(coordinator):
            stop = threading.Event()
            errors = []

            def hammer():
                with ServeClient(port=coordinator.port) as client:
                    while not stop.is_set():
                        try:
                            client.call(
                                "query", sql="SELECT COUNT(*) FROM R"
                            )
                        except Exception as error:  # pragma: no cover
                            errors.append(error)
                            return

            thread = threading.Thread(target=hammer, daemon=True)
            thread.start()
            try:
                with ServeClient(port=coordinator.port) as client:
                    assert client.ping() == {"version": 1}
                    before = client.call(
                        "query", sql="SELECT COUNT(*) FROM R"
                    )["result"]["value"]
                    assert client.reload() == 2
                    assert client.ping() == {"version": 2}
                    after = client.call(
                        "query", sql="SELECT COUNT(*) FROM R"
                    )["result"]["value"]
            finally:
                stop.set()
                thread.join(timeout=10)
            assert not errors
            assert before == pytest.approx(600, abs=2)
            assert after == pytest.approx(900, abs=2)


    def test_reload_rides_the_channels_and_replaces_a_refusing_worker(
        self, versioned_store, monkeypatch
    ):
        coordinator = ClusterCoordinator(
            store=versioned_store,
            name="demo",
            version=1,
            workers=2,
            replicas=2,
            config=ServeConfig(port=0, cache_size=0),
        )
        with ServerThread(coordinator):
            coordinator._execute_items(_sharded_items(coordinator, QUERIES))
            ports = coordinator.worker_ports()
            connections = _worker_connections(ports[0])
            exchange = coordinator._exchange

            def skewed(op, requests):
                # Worker 1 is asked for a version the store does not
                # have, so it answers its reload with a real error.
                if op == "reload":
                    requests = {**requests, 1: {"version": 999}}
                return exchange(op, requests)

            monkeypatch.setattr(coordinator, "_exchange", skewed)
            assert coordinator.reload() == 2
            # Worker 0 reloaded, over the channel it already had: only
            # this ping and the two metric probes connected to it.
            with ServeClient(port=ports[0]) as client:
                assert client.ping() == {"version": 2}
            assert _worker_connections(ports[0]) - connections == 2
            # Worker 1 was killed, and comes back at the target version.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = coordinator.stats()["cluster"]
                if stats["respawns"] >= 1 and stats["live"] == 2:
                    break
                time.sleep(0.05)
            assert coordinator.stats()["cluster"]["deaths"] == 1
            assert coordinator.worker_ports()[1] != ports[1]
            with ServeClient(port=coordinator.worker_ports()[1]) as client:
                assert client.ping() == {"version": 2}
            [output] = coordinator._execute_items(
                _sharded_items(coordinator, ["SELECT COUNT(*) FROM R"])
            )
            assert output["value"] == pytest.approx(900, abs=2)
            assert "degraded" not in output


class TestValidation:
    def test_unsharded_summary_is_rejected(self):
        single = (
            SummaryBuilder(_relation(rows=200))
            .pairs(("state", "hour"))
            .per_pair_budget(4)
            .iterations(30)
            .fit()
        )
        with pytest.raises(ReproError, match="sharded"):
            ClusterCoordinator(single, workers=2)

    def test_pool_shape_bounds(self, summary):
        with pytest.raises(ReproError, match="workers"):
            ClusterCoordinator(summary, workers=NUM_SHARDS + 1)
        with pytest.raises(ReproError, match="replicas"):
            ClusterCoordinator(summary, workers=2, replicas=3)

    def test_assignment_must_cover_every_worker(self, summary):
        with pytest.raises(ReproError, match="owns no shards"):
            ClusterCoordinator(
                summary,
                workers=2,
                assignment=[[0], [0], [0], [0]],
            )


# ----------------------------------------------------------------------
# AVG: one arena pass on every surface
# ----------------------------------------------------------------------

class TestAvgOnEverySurface:
    TEXTS = [
        "SELECT AVG(hour) FROM R",
        "SELECT AVG(hour) FROM R WHERE state IN ('CA', 'NY')",
        "SELECT AVG(hour) FROM R WHERE hour >= 3 AND state != 'WA'",
        "SELECT AVG(hour) FROM R WHERE hour BETWEEN 2 AND 9",
    ]

    @pytest.fixture(scope="class")
    def flat(self):
        return (
            SummaryBuilder(_relation())
            .pairs(("state", "hour"))
            .per_pair_budget(4)
            .iterations(40)
            .fit()
        )

    @staticmethod
    def _reference(model, plan):
        predicate = plan.conjunction_or_none()
        weights = numeric_weights(model.schema.domain("hour"))
        total = reference.sum_estimate(model, "hour", weights, predicate)
        return total / reference.count(model, predicate)[0]

    def test_explorer_and_server_agree_with_the_reference(self, flat, summary):
        for model in (flat, summary):
            explorer = Explorer.attach(model)
            server = SummaryServer(model, config=ServeConfig(cache_size=0))
            with ServerThread(server), ServeClient(port=server.port) as client:
                for sql in self.TEXTS:
                    expected = self._reference(model, explorer.plan(sql))
                    arena = model.arena
                    passes = arena.cache_hits + arena.cache_misses
                    assert explorer.sql(sql).scalar == pytest.approx(expected, rel=1e-9)
                    # One sum_and_count pass: no COUNT kernel call beside it.
                    assert arena.cache_hits + arena.cache_misses == passes
                    assert client.query(sql)["value"] == pytest.approx(expected, rel=1e-9)

    def test_cluster_merge_agrees_with_the_reference(self, summary, explorer):
        assignment = [[shard % 2] for shard in range(summary.num_shards)]
        for sql in self.TEXTS:
            plan = explorer.plan(sql)
            payload = frontend_merge(summary, plan, assignment, {0, 1})
            expected = self._reference(summary, plan)
            assert payload["value"] == pytest.approx(expected, rel=1e-9)
